package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"laminar/internal/core"
	"laminar/internal/engine"
	"laminar/internal/index"
	"laminar/internal/registry"
	"laminar/internal/server"
)

// The metrics smoke gate (`make metrics-smoke`): boot a metrics-enabled
// server on a realistic corpus, drive real HTTP searches through it,
// scrape GET /metrics, and fail on any of the regressions that would
// silently blind an operator:
//
//   - the exposition stops parsing as Prometheus text,
//   - the probe/stop-rule histograms or the per-route latency histograms
//     come back empty under traffic that must populate them,
//   - the retrain counters stop counting,
//   - a registry load stops accounting for its stages (a stage gauge goes
//     missing, or the stages no longer add up to the load), or
//   - docs/operations.md and the live endpoint disagree about which
//     metrics exist (the runbook documents every family by exact name; a
//     metric added without a runbook row — or a runbook row whose metric
//     was renamed away — both fail here).

// smokeCorpusSize is comfortably above the index's training threshold so
// the scrape shows a *trained* clustering's probe telemetry, not the
// brute-scan fallback.
const smokeCorpusSize = 300

// smokeQueries is how many semantic searches the smoke run issues.
const smokeQueries = 20

// smokeSampleRE matches one exposition sample line (label values are
// quoted strings and may contain anything, including the literal braces
// of route patterns).
var smokeSampleRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (NaN|[+-]?Inf|[0-9eE.+-]+)$`)

// smokeDocNameRE extracts backtick-quoted metric names from the runbook.
var smokeDocNameRE = regexp.MustCompile("`(laminar_[a-z0-9_]+)`")

// RunMetricsSmoke executes the gate. docPath is the runbook whose metric
// names are cross-validated against the live endpoint (the Makefile
// passes docs/operations.md). It returns a one-line summary for CI logs;
// a non-nil error is a gate failure.
func RunMetricsSmoke(docPath string) (string, error) {
	corpus, qs := GenPECorpus(smokeCorpusSize, smokeQueries)

	reg := registry.NewStore()
	reg.ConfigureIndex(func() index.VectorIndex {
		return index.NewClustered(index.ClusteredConfig{RecallTarget: 0.9})
	})
	srv := server.New(server.Config{
		Registry: reg,
		Engine:   engine.New(engine.Config{InstallDelayScale: 0}),
		Metrics:  true,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("metrics-smoke: starting server: %w", err)
	}
	defer srv.Close()

	// Register over HTTP so the auth route shows up in the route metrics
	// too, then load the corpus through the store (bulk path) and settle
	// the index so queries run against a trained clustering.
	if err := smokePost(addr+"/auth/register",
		core.RegisterUserRequest{UserName: "smoke", Password: "pw"}, http.StatusCreated); err != nil {
		return "", fmt.Errorf("metrics-smoke: register: %w", err)
	}
	u, err := reg.UserByName("smoke")
	if err != nil {
		return "", fmt.Errorf("metrics-smoke: %w", err)
	}
	for i, v := range corpus {
		if _, err := reg.AddPE(u.UserID, core.AddPERequest{
			PEName: fmt.Sprintf("PE%04d", i), PECode: "code", DescEmbedding: v,
		}); err != nil {
			return "", fmt.Errorf("metrics-smoke: seeding corpus: %w", err)
		}
	}
	reg.RetrainIndexes()

	// One save and one load, so the scrape shows a load and its stages.
	dir, err := os.MkdirTemp("", "laminar-metrics-smoke-")
	if err != nil {
		return "", fmt.Errorf("metrics-smoke: %w", err)
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "registry.json")
	if err := reg.Save(snapPath); err != nil {
		return "", fmt.Errorf("metrics-smoke: saving registry: %w", err)
	}
	if err := reg.Load(snapPath); err != nil {
		return "", fmt.Errorf("metrics-smoke: loading registry: %w", err)
	}

	for _, q := range qs {
		if err := smokePost(addr+"/registry/smoke/search", core.SearchRequest{
			Search:         "smoke query",
			SearchType:     core.SearchPEs,
			QueryType:      core.QuerySemantic,
			QueryEmbedding: q,
		}, http.StatusOK); err != nil {
			return "", fmt.Errorf("metrics-smoke: search: %w", err)
		}
	}

	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return "", fmt.Errorf("metrics-smoke: scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("metrics-smoke: /metrics status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("metrics-smoke: reading scrape: %w", err)
	}
	scrape := string(raw)

	families, samples, err := parseScrape(scrape)
	if err != nil {
		return "", fmt.Errorf("metrics-smoke: %w", err)
	}

	// The histograms the issue is about must be non-empty under the
	// traffic just generated.
	checks := []struct {
		sample string
		min    float64
	}{
		{`laminar_index_probe_shards_count{index="desc"}`, smokeQueries},
		{`laminar_index_scanned_vectors_count{index="desc"}`, smokeQueries},
		{`laminar_http_request_seconds_count{route="POST /registry/{user}/search"}`, smokeQueries},
		{`laminar_http_requests_total{route="POST /registry/{user}/search",code="200"}`, smokeQueries},
		{`laminar_index_retrains_total{index="desc"}`, 1},
		{`laminar_registry_pes`, smokeCorpusSize},
		{`laminar_registry_loads_total`, 1},
	}
	for _, c := range checks {
		v, ok := samples[c.sample]
		if !ok {
			return "", fmt.Errorf("metrics-smoke: scrape is missing %s", c.sample)
		}
		if v < c.min {
			return "", fmt.Errorf("metrics-smoke: %s = %g, want >= %g", c.sample, v, c.min)
		}
	}
	// Stop-rule attribution must account for every probe-histogram query.
	var stops float64
	for sample, v := range samples {
		if strings.HasPrefix(sample, `laminar_index_query_stops_total{index="desc"`) {
			stops += v
		}
	}
	if stops < smokeQueries {
		return "", fmt.Errorf("metrics-smoke: stop-rule attributions (%g) below query count (%d)", stops, smokeQueries)
	}

	// The one load's stages are all there and add up to it: at least half
	// its wall-clock time (the rest opens files and takes locks), at most
	// what the overlap allows — the two restores run side by side, section
	// decodes on up to GOMAXPROCS processors. No journal here, so replay
	// is set but may be zero.
	var stageSum float64
	for _, stage := range []string{"records", "vectors", "index_sections", "lexical_sections", "index_restore", "lexical_restore", "replay"} {
		v, ok := samples[fmt.Sprintf(`laminar_registry_load_stage_seconds{stage=%q}`, stage)]
		if !ok || (v <= 0 && stage != "replay") {
			return "", fmt.Errorf("metrics-smoke: load stage %q = %g (exported: %v)", stage, v, ok)
		}
		stageSum += v
	}
	loadWall := samples["laminar_registry_load_seconds_sum"]
	if overlap := float64(max(2, runtime.GOMAXPROCS(0))); stageSum < 0.5*loadWall || stageSum > overlap*loadWall {
		return "", fmt.Errorf("metrics-smoke: load stages sum to %gs but the load took %gs (want within [0.5, %g] of it)", stageSum, loadWall, overlap)
	}

	// Runbook cross-validation: every family the endpoint exports is
	// documented by exact name, and every laminar_* name the runbook
	// mentions exists (suffixed _bucket/_sum/_count forms resolve to
	// their family).
	doc, err := os.ReadFile(docPath)
	if err != nil {
		return "", fmt.Errorf("metrics-smoke: reading runbook %s: %w", docPath, err)
	}
	documented := map[string]bool{}
	for _, m := range smokeDocNameRE.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}
	var missing []string
	for fam := range families {
		if !documented[fam] {
			missing = append(missing, fam)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("metrics-smoke: exported but not documented in %s: %s",
			docPath, strings.Join(missing, ", "))
	}
	var stale []string
	for name := range documented {
		if families[name] || families[trimHistogramSuffix(name)] {
			continue
		}
		stale = append(stale, name)
	}
	if len(stale) > 0 {
		sort.Strings(stale)
		return "", fmt.Errorf("metrics-smoke: documented in %s but not exported: %s",
			docPath, strings.Join(stale, ", "))
	}

	return fmt.Sprintf("metrics-smoke: %d PEs, %d searches: %d metric families exported, all parseable, probe/route histograms populated, runbook names in sync",
		smokeCorpusSize, smokeQueries, len(families)), nil
}

// smokePost sends one JSON request and checks the status.
func smokePost(url string, body any, wantStatus int) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		out, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: status %d (%s)", url, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return nil
}

// parseScrape validates the exposition line by line and returns the
// family set (from # TYPE headers) plus every sample keyed by its full
// name{labels} form.
func parseScrape(scrape string) (families map[string]bool, samples map[string]float64, err error) {
	families = map[string]bool{}
	samples = map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(scrape, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, nil, fmt.Errorf("malformed TYPE line: %q", line)
			}
			families[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !smokeSampleRE.MatchString(line) {
			return nil, nil, fmt.Errorf("malformed sample line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, perr := strconv.ParseFloat(strings.TrimSpace(line[sp+1:]), 64)
		if perr != nil {
			return nil, nil, fmt.Errorf("unparseable value in %q: %v", line, perr)
		}
		samples[line[:sp]] = v
	}
	if len(families) == 0 {
		return nil, nil, fmt.Errorf("scrape exported no metric families")
	}
	return families, samples, nil
}

// trimHistogramSuffix maps a documented _bucket/_sum/_count name to its
// histogram family.
func trimHistogramSuffix(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}
