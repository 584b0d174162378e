package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"laminar/internal/cluster"
	"laminar/internal/core"
	"laminar/internal/registry"
)

// Text queries run the one pipeline: lookup → backend → fill, no embed.

// TestTextQueriesAreCachedByEpoch: a repeated text query is a cache hit
// that never reaches the registry, an empty answer is cached like any
// other, and an add, an upsert and a remove each show in the very next
// query, because each bumps the epoch the entries are tagged with.
func TestTextQueriesAreCachedByEpoch(t *testing.T) {
	reg := registry.NewStore()
	srv, addr := bootNode(t, Config{Registry: reg, CacheSize: 64})
	seedNodes(t, addr)
	user, err := reg.UserByName("zz46")
	if err != nil {
		t.Fatal(err)
	}
	const hitsFamily = `laminar_cache_hits_total{cache="local"}`
	// ask sends the query twice and holds the second answer — a cache hit
	// that leaves the registry alone — equal to the first.
	ask := func(search string) []core.SearchHit {
		t.Helper()
		req := core.SearchRequest{Search: search, QueryType: core.QueryText, SearchType: core.SearchBoth, Limit: 40}
		var first, second core.SearchResponse
		if code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/search", req, &first); code != http.StatusOK {
			t.Fatalf("text %q: %d %s", search, code, raw)
		}
		hits, hops := metricSum(t, srv, hitsFamily), reg.WANHops()
		code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/search", req, &second)
		if code != http.StatusOK {
			t.Fatalf("text %q again: %d %s", search, code, raw)
		}
		if got := metricSum(t, srv, hitsFamily) - hits; got != 1 {
			t.Fatalf("repeating text query %q scored %v cache hits", search, got)
		}
		if got := reg.WANHops() - hops; got != 1 { // the route's user lookup; no second hop for a search
			t.Fatalf("a cached text query %q made %d registry calls, want the user lookup alone", search, got)
		}
		a, _ := json.Marshal(first)
		b, _ := json.Marshal(second)
		if string(a) != string(b) {
			t.Fatalf("cached text answer diverged:\n got %s\nwant %s", b, a)
		}
		return second.Hits
	}
	if hits := ask("photon"); len(hits) != 9 { // 8 PEs and the one workflow (the corpus's six share an entry point)
		t.Fatalf("photon: %d hits %+v", len(hits), hits)
	}
	if hits := ask("latecomer"); hits != nil {
		t.Fatalf("nothing is called latecomer yet: %+v", hits)
	}
	pe := core.AddPERequest{PEName: "LateComer", Description: "arrives after the others", PECode: "opaque"}
	if code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/pe/add", pe, nil); code != http.StatusCreated {
		t.Fatalf("add: %d %s", code, raw)
	}
	if hits := ask("latecomer"); len(hits) != 1 || hits[0].Name != "LateComer" {
		t.Fatalf("after the add: %+v", hits)
	}
	if hits := ask("rewritten"); hits != nil {
		t.Fatalf("before the upsert: %+v", hits)
	}
	pe.Description = "rewritten in place"
	if _, created, err := reg.UpsertPE(user.UserID, pe); err != nil || created {
		t.Fatalf("upsert: created=%v, %v", created, err)
	}
	if hits := ask("rewritten"); len(hits) != 1 || hits[0].Description != pe.Description {
		t.Fatalf("after the upsert: %+v", hits)
	}
	if code, raw := doReq(t, http.MethodDelete, addr+"/registry/zz46/pe/remove/name/LateComer", nil, nil); code != http.StatusOK {
		t.Fatalf("remove: %d %s", code, raw)
	}
	if hits := ask("latecomer"); hits != nil {
		t.Fatalf("after the remove: %+v", hits)
	}
}

// TestTextBatchMatchesSingle: the batch route takes queryType text, and
// each list is byte-equal to the same query sent alone; the routes share
// cache entries, so every single search that follows its batch is a hit.
func TestTextBatchMatchesSingle(t *testing.T) {
	srv, addr := bootNode(t, Config{CacheSize: 256})
	seedNodes(t, addr)
	queries := []string{"photon", "STAGE_00", "seismic traces", "flow 0", "ilters", "no such thing", ""}
	singles := 0
	for _, st := range []core.SearchType{core.SearchPEs, core.SearchWorkflows, core.SearchBoth} {
		for _, limit := range []int{0, 3} {
			var batch core.SearchBatchResponse
			code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", core.SearchBatchRequest{
				QueryType: core.QueryText, SearchType: st, Queries: queries, Limit: limit,
			}, &batch)
			if code != http.StatusOK || len(batch.Results) != len(queries) {
				t.Fatalf("text batch over %s: %d %s", st, code, raw)
			}
			matched := 0
			for i, q := range queries {
				var single core.SearchResponse
				req := core.SearchRequest{Search: q, QueryType: core.QueryText, SearchType: st, Limit: limit}
				if code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/search", req, &single); code != http.StatusOK {
					t.Fatalf("single %+v: %d %s", req, code, raw)
				}
				got, _ := json.Marshal(batch.Results[i])
				want, _ := json.Marshal(single.Hits)
				if string(got) != string(want) {
					t.Fatalf("%q over %s at limit %d: batch diverged from single search:\n got %s\nwant %s", q, st, limit, got, want)
				}
				matched += len(single.Hits)
				singles++
			}
			if matched == 0 {
				t.Fatalf("no query matched anything over %s: the equivalence is vacuous", st)
			}
		}
	}
	if hits := metricSum(t, srv, `laminar_cache_hits_total{cache="local"}`); hits != float64(singles) {
		t.Fatalf("%v cache hits after %d single text searches that each followed their batch", hits, singles)
	}
}

// TestCancelledTextQueryStopsBeforeTheScan: the executor's context check
// stands between a text query and the registry as it does for a ranked one.
func TestCancelledTextQueryStopsBeforeTheScan(t *testing.T) {
	reg := registry.NewStore()
	srv, addr := bootNode(t, Config{Registry: reg})
	seedNodes(t, addr)
	user, err := reg.UserByName("zz46")
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	req := core.SearchRequest{Search: "photon", QueryType: core.QueryText}
	hops := reg.WANHops()
	if _, err := srv.searchOne(cancelled, user, req); err != context.Canceled {
		t.Fatalf("cancelled text search returned %v, want context.Canceled", err)
	}
	if got := reg.WANHops(); got != hops {
		t.Fatalf("a cancelled text search reached the registry: %d → %d calls", hops, got)
	}
	if res, err := srv.searchOne(context.Background(), user, req); err != nil || len(res.Hits) == 0 || reg.WANHops() != hops+1 {
		t.Fatalf("live text search: %+v, %v, %d registry calls", res, err, reg.WANHops()-hops)
	}
}

// TestTextSearchAllocationsDoNotGrowWithTheCorpus pins what made text the
// slowest route: a listing copied and every field re-normalized through
// fresh strings on each query, 73k allocations over 4.4k records. An
// uncached text query now allocates the same handful of buffers whatever
// the corpus holds. Names and descriptions are of one width each, so the
// matcher's buffers grow the same way in both corpora.
func TestTextSearchAllocationsDoNotGrowWithTheCorpus(t *testing.T) {
	allocs := func(records int) float64 {
		reg := registry.NewStore()
		srv, _ := bootNode(t, Config{Registry: reg})
		user, err := reg.UserByName("zz46")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if _, err := reg.AddPE(user.UserID, core.AddPERequest{
				PEName: fmt.Sprintf("FilterStage%05d", i), PECode: "opaque",
				Description: fmt.Sprintf("filters sensor readings, release z%05d", i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		req := core.SearchRequest{Search: "z00500", QueryType: core.QueryText}
		return testing.AllocsPerRun(20, func() {
			if res, err := srv.searchOne(context.Background(), user, req); err != nil || len(res.Hits) != 1 {
				t.Fatalf("text search over %d records: %+v, %v", records, res, err)
			}
		})
	}
	small, large := allocs(1000), allocs(4000)
	if large > small {
		t.Fatalf("a text search allocates %v times over 1k records and %v over 4k: the scan allocates per record", small, large)
	}
	if small > 40 {
		t.Fatalf("a text search allocates %v times; it should need a few buffers and one hit list", small)
	}
}

// TestCoordinatorCachesTextByEpoch: a coordinator answers text from its
// own registry, so its cache tags those entries with its own epoch — a
// local write shows at once, not after the TTL that scattered answers
// expire by.
func TestCoordinatorCachesTextByEpoch(t *testing.T) {
	poison := &fakeShardPeer{name: "a", err: context.DeadlineExceeded}
	co, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Shards: []cluster.Shard{{Name: "a", Primary: poison}}})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := bootNode(t, Config{Cluster: co, CacheSize: 16, ClusterCacheTTL: time.Hour})
	addTestPE(t, addr, "LocalPE")
	ask := func() core.SearchResponse {
		t.Helper()
		var res core.SearchResponse
		if code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/search", core.SearchRequest{
			Search: "LocalPE", QueryType: core.QueryText,
		}, &res); code != http.StatusOK || res.Degraded {
			t.Fatalf("text search on a coordinator: %d %s", code, raw)
		}
		return res
	}
	if res := ask(); len(res.Hits) != 1 {
		t.Fatalf("first: %+v", res.Hits)
	}
	if res := ask(); len(res.Hits) != 1 || metricSum(t, srv, `laminar_cache_hits_total{cache="coordinator"}`) != 1 {
		t.Fatalf("the repeat was not a coordinator cache hit: %+v", res.Hits)
	}
	addTestPE(t, addr, "LocalPE2")
	if res := ask(); len(res.Hits) != 2 {
		t.Fatalf("a write on the coordinator did not show in its next text query: %+v", res.Hits)
	}
}
