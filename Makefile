# Tier-1 verification plus the fast static gates (vet + gofmt + docs), so
# formatting, vet and documentation regressions fail before review.
# `make verify` is the one-shot pre-commit check.

GO ?= go

# The packages whose concurrency actually matters (sharded registry store,
# vector indexes with background retrains, HTTP serving layer, the four
# dataflow mappings and the Redis transport under them) run under the race
# detector; running the whole tree under -race would double the verify wall
# clock for packages with no shared state.
RACE_PKGS = ./internal/registry/... ./internal/index ./internal/server ./internal/telemetry ./internal/dataflow ./internal/resp ./internal/redisserver ./internal/cluster ./internal/lexical ./internal/search ./internal/qcache

# The hybrid-retrieval, persistence and wire-protocol packages carry a
# statement-coverage floor: their test walls (BM25/RRF properties,
# tokenizer, delta-segment and RESP-frame fuzz seeds, rerank goldens,
# crash-consistency torture tests) are the only thing standing between a
# scoring, durability or parsing regression and silent data loss or a
# crashed shard, so `make verify` fails if coverage decays below this.
COVER_FLOOR = 85
COVER_PKGS = ./internal/lexical ./internal/search ./internal/registry/storage ./internal/qcache ./internal/resp

.PHONY: build test vet fmt-check docs bench race purego cover-check smoke benchmark-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

# docs lints every Markdown file: relative links must resolve to existing
# files and heading anchors must exist, so stale docs fail fast.
docs:
	$(GO) run ./cmd/mdcheck .

bench:
	$(GO) test -bench=. -benchtime=1x -run XXX . ./internal/vecmath

# purego re-runs the scoring-kernel suites with the assembly and
# unrolled kernels swapped out for their portable twins, so the fallback
# path non-amd64 builds take is tested on every verify, not just on
# exotic hardware.
purego:
	$(GO) test -tags purego ./internal/vecmath ./internal/index

# race runs the concurrency-heavy packages under the race detector; the
# registry stress test (concurrent AddPE/RemovePE/Search/Save) is its
# main customer.
race:
	$(GO) test -race $(RACE_PKGS)

# cover-check enforces the COVER_FLOOR statement-coverage floor on the
# packages listed in COVER_PKGS.
cover-check:
	@fail=0; for pkg in $(COVER_PKGS); do \
		out="$$($(GO) test -cover $$pkg)" || { echo "$$out"; exit 1; }; \
		pct="$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')"; \
		echo "$$pkg coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
		if [ -z "$$pct" ] || [ "$$(echo "$$pct $(COVER_FLOOR)" | awk '{print ($$1 >= $$2) ? 1 : 0}')" != "1" ]; then \
			echo "cover-check: $$pkg coverage $$pct% is below the $(COVER_FLOOR)% floor"; fail=1; \
		fi; \
	done; exit $$fail

# smoke runs the five laminar-bench CI gates in one process (one compile
# and link instead of five); the first failing gate fails the target.
#   - searchbench-smoke, the recall gate: a tiny corpus of real description
#     embeddings, hard floors on the tuned recall engine (recall@10 >= 0.9,
#     never behind the fixed-nprobe baseline, RecallTarget=1.0 exactly
#     matches Flat), hybrid never behind pure ANN on exact identifiers.
#   - metrics-smoke, the telemetry gate: boot a metrics-enabled server on a
#     realistic corpus, search over HTTP, scrape /metrics, and fail when
#     the probe/route histograms come back empty, the exposition stops
#     parsing, or docs/operations.md and the live endpoint disagree about
#     which metrics exist.
#   - flowbench-smoke, the dataflow gate: one skewed 4-PE pipeline through
#     all four mappings (plus a cost-weighted MULTI run): identical output
#     multisets, populated laminar_flow_* telemetry, a queue high-water mark
#     bounded by QueueCap x instances, a settled queue-depth gauge, and a
#     cyclic workflow refused at registration with a 400 naming the defect.
#   - clusterbench-smoke, the distributed-serving gate: three in-process
#     shards behind a coordinator; fails when the 3-shard p50 exceeds 1.3x
#     the single-node baseline at 3x the corpus, the merged top-10 drifts
#     from a global exact scan, a killed primary's replica fails to take
#     over, or a killed replica-less shard errors instead of degrading.
#   - persistbench-smoke, the durability gate: a churning registry through
#     delta saves, a forced compaction and a crash-reload through the
#     journal chain; fails when the reloaded state diverges, delta saves
#     stop being cheaper than full saves, or compaction never triggers.
smoke:
	$(GO) run ./cmd/laminar-bench -searchbench-smoke -metrics-smoke -flowbench-smoke -clusterbench-smoke -persistbench-smoke

# benchmark-smoke is the end-to-end gate: the repo's benchmark
# (BENCHMARK.json, ./benchmark) boots the real laminar-server on a small
# corpus and runs all six workloads for a few seconds each, failing when a
# server does not boot, a reply is wrong, or a declared metric comes back
# without a finite value. It checks that the benchmark still runs against
# this tree, not how fast the tree is: ~25 s, no timing is gated.
benchmark-smoke:
	$(GO) run ./benchmark smoke

verify: build vet fmt-check docs test race purego cover-check smoke benchmark-smoke
