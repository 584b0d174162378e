package pycode

import (
	"bytes"
	"runtime"
	"testing"
)

// A range is three ints: building range(40_000_000) and asking its len
// and last item allocates well under a kilobyte (a materialised list of
// boxed ints peaked near a gigabyte). MemStats counts the whole process,
// so the least of three runs is taken: other goroutines only add to it.
func TestRangeIsConstantMemory(t *testing.T) {
	prog, err := Parse("r = range(40_000_000)\nn = len(r)\nlast = r[-1]\n")
	if err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		ip := New(Options{Stdout: &bytes.Buffer{}})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err = ip.ExecModule(prog)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		n, _ := ip.Global("n")
		last, _ := ip.Global("last")
		if n != Int(40_000_000) || last != Int(39_999_999) {
			t.Fatalf("len = %v, [-1] = %v", n, last)
		}
	}
	if least >= 1024 {
		t.Errorf("range(40_000_000) + len + [-1] allocated %d bytes, want < 1024", least)
	}
}

// Looping over a huge range, in PE code or inside a builtin, runs until
// the step budget stops it.
func TestRangeLoopStopsAtStepLimit(t *testing.T) {
	for _, src := range []string{
		"for i in range(10**9):\n    pass\n",
		"sum(range(10**12))\n",
		"set(zip(range(10**10), range(10**10)))\n",
		"any(i < 0 for i in range(10**12))\n",
	} {
		ip := New(Options{Stdout: &bytes.Buffer{}, MaxSteps: 10000})
		err := ip.Exec(src)
		re, ok := err.(*RuntimeErr)
		if !ok || re.Type != "TimeoutError" || re.Msg != "execution step limit exceeded" {
			t.Errorf("%q: got %v, want the step-limit TimeoutError", src, err)
		}
	}
}

// Materialising a range past 50M items is refused before any allocation.
func TestRangeMaterialisationIsCapped(t *testing.T) {
	for _, src := range []string{"list(range(10**9))", "sorted(range(60_000_000))", "a, b = range(10**12)"} {
		err := runErr(t, src)
		re, ok := err.(*RuntimeErr)
		if !ok || re.Type != "MemoryError" || re.Msg != "range too large" {
			t.Errorf("%s: got %v, want MemoryError: range too large", src, err)
		}
	}
}
