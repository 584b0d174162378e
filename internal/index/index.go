// Package index implements the pluggable vector-index subsystem behind
// semantic code search (Section 4.2) and retrieval-based code completion
// (Section 4.3). It preserves the bi-encoder contract of Section 2.4: PE
// embeddings are computed exactly once at registration time by the embed
// model zoo and are only ever *compared* here — the index never re-embeds,
// it only stores vectors and answers top-k similarity queries against them.
//
// The embed models emit L2-normalized vectors, so cosine similarity reduces
// to a plain dot product (embed.Cosine is exactly that). Every index scores
// candidates with the same float64 dot product over the same stored raw
// vectors, which is what makes the Flat index byte-identical to the historic
// per-query brute-force scan.
//
// Two implementations are provided:
//
//   - Flat: exact search. Every stored vector is scored; a bounded top-k
//     heap replaces the historic full sort, so a query is O(N·d + N log k)
//     instead of O(N·d + N log N) with no allocation proportional to N.
//   - Clustered: an IVF-style approximate index. Vectors are sharded across
//     k-means-ish centroids; a query probes only the shards nearest it,
//     giving sublinear scan cost at a recall trade-off the recall engine's
//     three composable mechanisms control (see below). With every shard
//     probed it degenerates to an exact search identical to Flat.
//
// The Clustered recall engine stacks three mechanisms, each independently
// switchable through ClusteredConfig:
//
//   - Adaptive probing (RecallTarget/MaxProbe/NProbe): instead of a fixed
//     probe count, shards are visited best-first and the scan stops early
//     on a proof (the kth-best candidate beats every remaining shard's
//     centroid-similarity + shard-radius bound — the only rule allowed at
//     target 1.0, which therefore returns exactly the Flat answer) or on
//     diminishing returns (target-scaled patience with no top-k
//     improvement). Easy queries probe one shard; hard ones widen.
//   - Spilled shards (SpillRatio): near-boundary vectors are replicated
//     into their second-nearest shard at assignment time, so points that
//     straddle a centroid boundary stop being missed. Shards then overlap;
//     queries deduplicate replicas.
//   - Quantized candidate pass (Quantize/Overfetch): shard scans score
//     members with int8 dot products, collect k·Overfetch candidates, and
//     the pool is exact-rescored before the final top-k — the scan budget
//     buys candidates instead of full-width float products.
//
// Indexes are maintained incrementally: the registry upserts/deletes
// vectors as records are registered and removed, so queries never need to
// re-snapshot the full record set. Two durability properties come on top:
// every index serializes its structure to a versioned Snapshot (restored
// with checksum validation, so a restart skips retraining), and the
// Clustered retrain runs in a background goroutine with an atomic swap —
// triggered by corpus doublings and by delete/replace churn — with queries
// served from the previous clustering throughout, and mid-retrain inserts
// staying findable via an exact overflow buffer. See docs/index.md for the
// subsystem story and docs/search.md for the end-to-end search pipeline and
// tuning guide.
package index

import "laminar/internal/vecmath"

// Candidate is one scored index entry: the PE id and its similarity score.
type Candidate struct {
	ID    int
	Score float64
}

// Filter restricts a search to ids it accepts (e.g. the querying user's
// visible PEs). A nil Filter accepts everything.
type Filter func(id int) bool

// VectorIndex is the pluggable contract for similarity search over stored
// embeddings. Implementations are safe for concurrent use.
type VectorIndex interface {
	// Upsert inserts or replaces the vector stored under id. An empty
	// vector removes the entry (a PE registered without embeddings is not
	// searchable semantically).
	Upsert(id int, vec []float32)
	// Delete removes the entry for id, if present.
	Delete(id int)
	// Search returns the top-k candidates by similarity to query (score
	// descending, ties broken by ascending id), visiting only ids the
	// filter accepts.
	Search(query []float32, k int, filter Filter) []Candidate
	// Len reports the number of stored vectors.
	Len() int
	// Name identifies the implementation ("flat", "clustered").
	Name() string
	// Snapshot captures the index structure in the versioned serialized
	// form. Vectors themselves are not included — the owner (the registry)
	// persists them with its records and hands them back to Restore.
	Snapshot() *Snapshot
	// Restore replaces the index contents from a snapshot plus the vector
	// set it was taken over. It fails (leaving the index unchanged) when the
	// snapshot's version or kind does not match, or when its checksum does
	// not cover exactly the supplied vectors; callers fall back to a
	// rebuild in that case.
	Restore(snap *Snapshot, vecs map[int][]float32) error
}

// Factory builds a fresh, empty VectorIndex. The registry uses one factory
// to create its description- and code-embedding indexes.
type Factory func() VectorIndex

// dot is the shared scoring function. Delegating to vecmath.Dot (a float64
// dot product over the common prefix; cosine for the unit vectors the embed
// models emit — embed.Cosine delegates to the very same kernel) makes the
// byte-identical-to-brute-force guarantee true by construction rather than
// by keeping two copies in sync.
func dot(a, b []float32) float64 {
	return vecmath.Dot(a, b)
}
