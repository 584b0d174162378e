package server

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"strings"

	"laminar/internal/core"
	"laminar/internal/qcache"
	"laminar/internal/registry"
	"laminar/internal/search"
)

// The query pipeline (see the package comment): every search route plans
// its request over its queries, and execute is the only code that runs a
// plan.

// handleSearch serves the path form of Table 3:
// GET /registry/{user}/search/{search}/type/{type}?query=text|semantic|code
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	s.search(w, r, user, core.SearchRequest{
		Search:     r.PathValue("search"),
		SearchType: core.SearchType(strings.ToLower(r.PathValue("type"))),
		QueryType:  core.QueryType(strings.ToLower(r.URL.Query().Get("query"))),
		Mode:       strings.ToLower(r.URL.Query().Get("mode")),
	})
}

// handleSearchPost accepts the full SearchRequest body (semantic and code
// queries carry client-computed embeddings this way).
func (s *Server) handleSearchPost(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	var req core.SearchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.search(w, r, user, req)
}

func (s *Server) search(w http.ResponseWriter, r *http.Request, user *core.UserRecord, req core.SearchRequest) {
	res, err := s.searchOne(r.Context(), user, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// ClusterSearchLocal answers one search the way POST
// /registry/{user}/search would, shaped for the cluster package's RESP
// transport (cluster.SearchFunc): a shard node serves CSEARCH with it.
func (s *Server) ClusterSearchLocal(userName string, req core.SearchRequest) (core.SearchResponse, error) {
	user, err := s.reg.UserByName(userName)
	if err != nil {
		return core.SearchResponse{}, err
	}
	return s.searchOne(context.Background(), user, req)
}

// searchOne runs a single-query request: a batch of one.
func (s *Server) searchOne(ctx context.Context, user *core.UserRecord, req core.SearchRequest) (core.SearchResponse, error) {
	qs := [1]query{{text: req.Search, emb: req.QueryEmbedding}}
	if err := s.plan(&req, qs[:], true); err != nil {
		return core.SearchResponse{}, err
	}
	degraded, err := s.execute(ctx, user, req, qs[:])
	return core.SearchResponse{Hits: qs[0].hits, Degraded: degraded}, err
}

// handleSearchBatch answers many queries of one shape in one request; each
// result list is what POST /registry/{user}/search returns for that query.
// Client embeddings, when the batch carries any, say how many queries it
// has; the texts pair with them by position.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	var batch core.SearchBatchRequest
	if err := s.decodeBody(w, r, &batch); err != nil {
		writeErr(w, err)
		return
	}
	qs := make([]query, cmp.Or(len(batch.QueryEmbeddings), len(batch.Queries)))
	for i := range qs {
		if i < len(batch.Queries) {
			qs[i].text = batch.Queries[i]
		}
		if i < len(batch.QueryEmbeddings) {
			qs[i].emb = batch.QueryEmbeddings[i]
		}
	}
	req := core.SearchRequest{
		QueryType:  cmp.Or(batch.QueryType, core.QuerySemantic),
		SearchType: cmp.Or(batch.SearchType, core.SearchPEs),
		Mode:       batch.Mode,
		Limit:      batch.Limit,
	}
	err := s.plan(&req, qs, false)
	if err != nil {
		writeErr(w, err)
		return
	}
	res := core.SearchBatchResponse{Results: make([][]core.SearchHit, len(qs))}
	if res.Degraded, err = s.execute(r.Context(), user, req, qs); err != nil {
		writeErr(w, err)
		return
	}
	for i := range qs {
		res.Results[i] = qs[i].hits
	}
	writeJSON(w, http.StatusOK, res)
}

// query is one query of a request on its way through the pipeline.
type query struct {
	text string
	emb  []float32        // the client's; the embed stage fills in a missing one
	key  uint64           // cache identity, hashed once by the lookup stage
	hits []core.SearchHit // the answer
}

// plan validates a request — the shape fields of req and the queries qs it
// is asked over — and rewrites req into the plan the executor runs: search
// and query type defaulted, the mode resolved (a text query has none), the
// limit concrete. It is built once, before any work runs, so nothing
// downstream re-validates or re-defaults; it is also exactly the request a
// coordinator forwards, so every shard runs the same pipeline regardless of
// its own defaults. The single-query routes (single) differ from the batch
// route only in the name of their embedding, queryEmbedding.
func (s *Server) plan(req *core.SearchRequest, qs []query, single bool) error {
	req.SearchType = cmp.Or(req.SearchType, core.SearchBoth)
	switch req.SearchType {
	case core.SearchPEs, core.SearchWorkflows, core.SearchBoth:
	default:
		return core.ErrBadRequest("type", "unknown search type %q (want pe, workflow or both)", req.SearchType)
	}
	req.QueryType = cmp.Or(req.QueryType, core.QueryText)
	switch req.QueryType {
	case core.QuerySemantic, core.QueryCode:
		// The request's explicit mode wins, else the server's configured
		// default, else pure ANN; an unknown mode is a client error, not a
		// fallback.
		req.Mode = cmp.Or(req.Mode, s.cfg.SearchMode, core.ModeANN)
		if req.Mode != core.ModeANN && req.Mode != core.ModeHybrid && req.Mode != core.ModeReranked {
			return core.ErrBadRequest("mode", "unknown search mode %q (want ann, hybrid or reranked)", req.Mode)
		}
	case core.QueryText:
		req.Mode = ""
	default:
		return core.ErrBadRequest("query", "unknown query type %q (want text, semantic or code)", req.QueryType)
	}
	req.Limit = cmp.Or(max(req.Limit, 0), search.DefaultLimit)
	if len(qs) == 0 {
		return core.ErrBadRequest("queries", "batch carries no queries and no embeddings")
	}
	// The bi-encoder contract at the query boundary, as checkEmbeddingDim
	// holds it at registration: a narrower vector would score over the
	// common prefix and rank confidently and wrongly. Empty means absent.
	for i := range qs {
		if err := checkEmbeddingDim("queryEmbedding", qs[i].emb); err != nil {
			if !single {
				err.Param = fmt.Sprintf("queryEmbeddings[%d]", i)
			}
			return err
		}
	}
	return nil
}

// execute runs the plan p's stages over qs — cache lookup → embed →
// backend → cache fill — leaving each query's answer in its hits. The
// request's context is checked between stages, so a client that has gone
// away stops its query before the index walk, not after. degraded reports
// that a coordinator's scatter missed a shard, so some answer is a partial
// view.
func (s *Server) execute(ctx context.Context, user *core.UserRecord, p core.SearchRequest, qs []query) (degraded bool, err error) {
	code, text := p.QueryType == core.QueryCode, p.QueryType == core.QueryText
	if code && p.SearchType == core.SearchWorkflows {
		// Only PEs carry code embeddings: nothing to rank, on any node.
		return false, nil
	}
	// Text is not scattered: this node's registry answers it even on a
	// coordinator, so there too its cache entries carry the epoch tag.
	local := s.cfg.Cluster == nil || text

	// Cache lookup. A query's identity is who asked, what runs (mode +
	// query type + search type), how much of it (limit) and over what
	// input — the text and any client-supplied embedding, which the
	// bi-encoder contract lets differ from what the text would embed to
	// server-side. An answer from this node's registry is tagged with the
	// registry's mutation epoch and the indexes' retrain generation, so any
	// add/remove/load/restore or retrain invalidates on the next lookup. A
	// coordinator cannot see its shards' epochs: a scattered answer's tag
	// never changes and it expires by clock (Config.ClusterCacheTTL).
	var tag qcache.Tag
	if s.cache != nil && local {
		tag = qcache.Tag{Epoch: s.reg.Epoch(), Gen: s.reg.IndexGeneration()}
	}
	var misses []int
	for i := range qs {
		if q := &qs[i]; s.cache != nil {
			q.key = qcache.NewKey().
				Int(user.UserID).
				String(p.Mode).
				String(string(p.QueryType)).
				String(string(p.SearchType)).
				Int(p.Limit).
				String(q.text).
				Floats(q.emb).
				Sum()
			if hits, ok := s.cache.Get(q.key, tag); ok {
				q.hits = hits
				continue
			}
		}
		misses = append(misses, i)
	}
	if len(misses) == 0 {
		return false, nil
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}

	// Embed. Bi-encoder contract: clients embed their own queries; the
	// server embeds only the ones that arrive without a vector — once,
	// here, so a coordinator's shards compare rather than re-embed. A text
	// query compares no vectors.
	inputs := make([]registry.Input, len(misses))
	for k, i := range misses {
		q := &qs[i]
		switch {
		case text || len(q.emb) > 0: // nothing to embed
		case code:
			q.emb = search.EmbedCode(q.text)
		default:
			q.emb = search.EmbedDescription(q.text)
		}
		inputs[k] = registry.Input{Text: q.text, Embedding: q.emb}
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}

	// Backend, then cache fill: this node's registry, which takes the
	// misses together — one WAN hop and one span of its read locks for all
	// of them — or, on a coordinator, one scatter per miss over the shards
	// that hold the corpus. Degraded scatters are never cached: a shard coming back
	// should be visible on the next attempt, not after a TTL.
	if local {
		lists := s.reg.Search(user.UserID, registry.Query{Mode: p.Mode, Code: code, Text: text, Type: p.SearchType, Limit: p.Limit}, inputs...)
		for k, i := range misses {
			qs[i].hits = lists[k]
			s.cache.Put(qs[i].key, tag, lists[k])
		}
		return false, nil
	}
	for k, i := range misses {
		if err := ctx.Err(); err != nil {
			return degraded, err
		}
		p.Search, p.QueryEmbedding = inputs[k].Text, inputs[k].Embedding
		res := s.cfg.Cluster.Search(ctx, user.UserName, p)
		qs[i].hits = res.Hits
		if res.Degraded {
			degraded = true
		} else {
			s.cache.Put(qs[i].key, tag, res.Hits)
		}
	}
	return degraded, nil
}
