package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"laminar"
)

// knobRowRE matches the first cell of a docs/search.md knob-table row,
// e.g. `| `-index-centroids` | ...`.
var knobRowRE = regexp.MustCompile("^`-(index-[a-z-]+)`$")

// TestIndexFlagsMatchDocumentedKnobs pins `laminar-server -h` to the knob
// table in docs/search.md: every `-index-*` flag the binary registers
// must have a row in the table, and every row in the table must be a
// registered flag. Help-text drift between the two was found by audit
// once; this keeps it from coming back.
func TestIndexFlagsMatchDocumentedKnobs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "search.md"))
	if err != nil {
		t.Fatalf("reading the knob table's home: %v", err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 2 {
			continue
		}
		if m := knobRowRE.FindStringSubmatch(strings.TrimSpace(cells[1])); m != nil {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("no `-index-*` knob rows found in docs/search.md — did the table move?")
	}

	fs := flag.NewFlagSet("laminar-server", flag.ContinueOnError)
	registerFlags(fs)
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "index-") {
			registered[f.Name] = true
			if strings.TrimSpace(f.Usage) == "" {
				t.Errorf("flag -%s has no help text", f.Name)
			}
		}
	})

	for name := range registered {
		if !documented[name] {
			t.Errorf("flag -%s is registered but has no row in docs/search.md's knob table", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/search.md documents -%s but laminar-server does not register it", name)
		}
	}
}

// TestFlagValidation pins the fail-fast ranges so a typo'd deployment
// flag — or an embedder's typo'd option: both go through
// laminar.ServerOptions.Validate — dies at startup, not at first query.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*laminar.ServerOptions)
		ok   bool
	}{
		{"defaults", func(o *laminar.ServerOptions) {}, true},
		{"clustered", func(o *laminar.ServerOptions) { o.Index = "clustered" }, true},
		{"bad index kind", func(o *laminar.ServerOptions) { o.Index = "ivf" }, false},
		{"target over 1", func(o *laminar.ServerOptions) { o.IndexRecallTarget = 1.5 }, false},
		{"negative spill", func(o *laminar.ServerOptions) { o.IndexSpill = -0.1 }, false},
		{"negative cooldown", func(o *laminar.ServerOptions) { o.IndexRetrainCooldown = -1 }, false},
		{"hybrid search mode", func(o *laminar.ServerOptions) { o.SearchMode = "hybrid" }, true},
		{"reranked search mode", func(o *laminar.ServerOptions) { o.SearchMode = "reranked" }, true},
		{"bad search mode", func(o *laminar.ServerOptions) { o.SearchMode = "bm25" }, false},
		// What the façade used to clamp or accept silently.
		{"whole-spill clamp", func(o *laminar.ServerOptions) { o.IndexSpill = -1 }, false},
		{"negative cache", func(o *laminar.ServerOptions) { o.CacheSize = -1 }, false},
		{"compact ratio over 1", func(o *laminar.ServerOptions) { o.DeltaCompactRatio = 2 }, false},
		{"bad cidr", func(o *laminar.ServerOptions) { o.MetricsAllow = []string{"10.0.0.0/33"} }, false},
		{"replica without registry", func(o *laminar.ServerOptions) { o.ReadOnlyReplica = true }, false},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("laminar-server", flag.ContinueOnError)
		opts, _ := registerFlags(fs)
		tc.mut(opts)
		if err := opts.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// The zero value — what an embedder passes — is as valid as the flag
	// defaults.
	if err := (laminar.ServerOptions{}).Validate(); err != nil {
		t.Errorf("zero ServerOptions: %v", err)
	}
}

// TestMetricsAllowFlag: the list flag splits on commas, trims, and
// accumulates across repeats.
func TestMetricsAllowFlag(t *testing.T) {
	fs := flag.NewFlagSet("laminar-server", flag.ContinueOnError)
	opts, _ := registerFlags(fs)
	if err := fs.Parse([]string{"-metrics-allow", "10.0.0.0/8, 127.0.0.0/8,", "-metrics-allow", "::1/128"}); err != nil {
		t.Fatal(err)
	}
	want := []string{"10.0.0.0/8", "127.0.0.0/8", "::1/128"}
	if !reflect.DeepEqual(opts.MetricsAllow, want) {
		t.Fatalf("MetricsAllow = %q, want %q", opts.MetricsAllow, want)
	}
}
