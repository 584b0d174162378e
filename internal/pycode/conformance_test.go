package pycode

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestConformance runs every testdata/conformance/<case>.py and compares
// its stdout with <case>.out, which regen.sh produced with CPython 3.11.
func TestConformance(t *testing.T) {
	cases, err := filepath.Glob(filepath.Join("testdata", "conformance", "*.py"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("no conformance cases found")
	}
	for _, path := range cases {
		name := strings.TrimSuffix(filepath.Base(path), ".py")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(strings.TrimSuffix(path, ".py") + ".out")
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := New(Options{Stdout: &out}).Exec(string(src)); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", name, err, out.String())
			}
			if got := out.String(); got != string(want) {
				t.Errorf("%s: stdout differs from CPython 3.11\n got:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}
