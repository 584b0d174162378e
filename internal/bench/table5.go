package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"laminar/internal/astro"
	"laminar/internal/client"
	"laminar/internal/dataflow"
	"laminar/internal/engine"
	"laminar/internal/pype"
	"laminar/internal/server"
	"laminar/internal/votable"
)

// AstrophysicsSource is the Section 5.2 Internal Extinction workflow in
// pycode: readRaDec → getVoTable → filterColumns → internalExt (Fig. 10).
const AstrophysicsSource = `
import vo
import astropy
import astro

class ReadRaDec(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
    def _process(self, filename):
        text = open(filename).read()
        coords = astro.parse_coordinates(text)
        for c in coords:
            self.write("output", [c[0], c[1]])

class GetVOTable(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
    def _process(self, coord):
        return vo.get_votable(coord[0], coord[1])

class FilterColumns(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
    def _process(self, xml):
        table = astropy.parse_votable(xml)
        filtered = table.filter_columns(["Mtype", "logR25"])
        mtype = int(filtered.rows[0][0])
        logr = float(filtered.rows[0][1])
        return [mtype, logr]

class InternalExtinction(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
    def _process(self, rec):
        return astro.internal_extinction(rec[0], rec[1])

graph = WorkflowGraph()
rd = ReadRaDec()
gv = GetVOTable()
fc = FilterColumns()
ie = InternalExtinction()
graph.connect(rd, 'output', gv, 'input')
graph.connect(gv, 'output', fc, 'input')
graph.connect(fc, 'output', ie, 'input')
`

// Table5Options parameterize the latency analysis.
type Table5Options struct {
	// Coordinates is the number of galaxies processed.
	Coordinates int
	// Processes is the Multi mapping's process count (the paper uses 5).
	Processes int
	// VOLatency is the simulated Virtual Observatory response time per
	// cone query.
	VOLatency time.Duration
	// RegistryLatency is the WAN round trip to the remote registry.
	RegistryLatency time.Duration
	// EngineLatency is the WAN round trip to the remote Execution Engine
	// (Azure App Services in the paper).
	EngineLatency time.Duration
	// Seed keeps coordinate generation deterministic.
	Seed int64
}

// DefaultTable5Options are scaled for benchmarking (seconds-scale, not the
// paper's 10-minute runs; EXPERIMENTS.md records the scaling).
func DefaultTable5Options() Table5Options {
	return Table5Options{
		Coordinates:     24,
		Processes:       5,
		VOLatency:       12 * time.Millisecond,
		RegistryLatency: 8 * time.Millisecond,
		EngineLatency:   25 * time.Millisecond,
		Seed:            51,
	}
}

// Table5Row holds Simple and Multi times for one execution method.
type Table5Row struct {
	Method string
	Simple time.Duration
	Multi  time.Duration
}

// Table5Result reproduces Table 5: execution times of the Internal
// Extinction workflow under original dispel4py, Laminar local execution and
// Laminar remote execution, each with Simple and Multi mappings.
type Table5Result struct {
	Rows []Table5Row
	Opts Table5Options
}

// table5Rounds is how many interleaved passes over the six cells RunTable5
// takes the per-cell minimum of, after one discarded warm-up pass.
const table5Rounds = 3

// RunTable5 measures all six cells. One warm-up pass is discarded; then
// the six are measured interleaved table5Rounds times and each cell
// reports its minimum. The injected latencies are every run's floor, so
// the minimum is the sample the host disturbed least, and interleaving
// spreads a slow spell of the host over all cells instead of one (a
// single sample per cell inverted the table's shape on noisy hosts).
func RunTable5(opts Table5Options) (*Table5Result, error) {
	vos := votable.NewService(opts.VOLatency)
	voURL, err := vos.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer vos.Close()
	coords := astro.GenerateCoordinates(opts.Coordinates, opts.Seed)

	res := &Table5Result{Opts: opts, Rows: []Table5Row{
		{Method: "original dispel4py"},
		{Method: "Local Execution (with Laminar)"},
		{Method: "Remote Execution (with Laminar)"},
	}}
	for round := 0; round <= table5Rounds; round++ {
		for i := range res.Rows {
			row := &res.Rows[i]
			for _, cell := range []struct {
				mapping dataflow.Mapping
				min     *time.Duration
			}{{dataflow.MappingSimple, &row.Simple}, {dataflow.MappingMulti, &row.Multi}} {
				var d time.Duration
				if i == 0 {
					d, err = runOriginal(voURL, coords, cell.mapping, opts)
				} else {
					d, err = runLaminar(voURL, coords, cell.mapping, opts, i == 2)
				}
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", row.Method, cell.mapping, err)
				}
				if round > 0 && (*cell.min == 0 || d < *cell.min) {
					*cell.min = d
				}
			}
		}
	}
	return res, nil
}

// runOriginal enacts the workflow directly in-process: no registry, no
// serialization, no engine — plain dispel4py usage.
func runOriginal(voURL, coords string, mapping dataflow.Mapping, opts Table5Options) (time.Duration, error) {
	dir, err := os.MkdirTemp("", "laminar-bench-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "coordinates.txt"), []byte(coords), 0o644); err != nil {
		return 0, err
	}
	build, err := pype.BuildWorkflow(AstrophysicsSource, pype.Options{
		ResourceDir: dir,
		Modules:     engine.ScienceModules(voURL, 10*time.Second),
		Seed:        opts.Seed,
	})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = dataflow.Run(build.Graph, dataflow.Options{
		Mapping:       mapping,
		Processes:     opts.Processes,
		InitialInputs: []map[string]dataflow.Value{{"input": "coordinates.txt"}},
	})
	return time.Since(start), err
}

// runLaminar measures the full serverless path: client → server (remote
// registry with WAN latency) → engine. remoteEngine=false is the paper's
// "Local Execution" (engine in-process with the client); true sends
// execution to a standalone engine behind an extra WAN hop.
func runLaminar(voURL, coords string, mapping dataflow.Mapping, opts Table5Options, remoteEngine bool) (time.Duration, error) {
	srv := server.New(server.Config{Engine: engine.New(engine.Config{InstallDelayScale: 0, VOBaseURL: voURL})})
	srv.Registry().SetLatency(opts.RegistryLatency)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()

	c := client.New(addr)
	if err := c.Register("bench", "password"); err != nil {
		return 0, err
	}
	if remoteEngine {
		eng := engine.New(engine.Config{InstallDelayScale: 1, VOBaseURL: voURL})
		rs := engine.NewRemoteServer(eng, opts.EngineLatency)
		rurl, err := rs.Start("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer rs.Close()
		c.RemoteEngineURL = rurl
	} else {
		c.LocalEngine = engine.New(engine.Config{InstallDelayScale: 1, VOBaseURL: voURL})
	}

	start := time.Now()
	_, err = c.Run(AstrophysicsSource, client.RunOptions{
		Input:     []any{map[string]any{"input": "coordinates.txt"}},
		Process:   string(mapping),
		Args:      map[string]any{"num": opts.Processes},
		Resources: map[string]string{"coordinates.txt": coords},
		Seed:      opts.Seed,
	})
	return time.Since(start), err
}

// Render prints the table in the paper's layout.
func (t *Table5Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 5: Execution times of the Internal Extinction\n")
	fmt.Fprintf(&sb, "%-36s %12s %12s\n", "Execution Method", "Simple", "Multi")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-36s %12s %12s\n", r.Method,
			formatSeconds(r.Simple), formatSeconds(r.Multi))
	}
	fmt.Fprintf(&sb, "(%d coordinates, %d processes, VO latency %s, registry latency %s, engine WAN %s)\n",
		t.Opts.Coordinates, t.Opts.Processes, t.Opts.VOLatency, t.Opts.RegistryLatency, t.Opts.EngineLatency)
	return sb.String()
}

func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%.3f sec.", d.Seconds())
}
