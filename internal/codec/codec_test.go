package codec

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	env := Envelope{
		Kind:    KindPE,
		Name:    "NumberProducer",
		Source:  "class NumberProducer(ProducerPE):\n    pass\n",
		Imports: []string{"random", "math"},
	}
	enc, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(enc, "LAM1") {
		t.Errorf("missing magic: %q", enc[:8])
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != env.Kind || dec.Name != env.Name || dec.Source != env.Source {
		t.Errorf("round trip mismatch: %+v", dec)
	}
	if len(dec.Imports) != 2 || dec.Imports[0] != "random" {
		t.Errorf("imports: %v", dec.Imports)
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode(Envelope{Kind: "bogus", Source: "x"}); err == nil {
		t.Error("invalid kind should fail")
	}
	if _, err := Encode(Envelope{Kind: KindPE, Source: "   "}); err == nil {
		t.Error("empty source should fail")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not an envelope",
		"LAM1!!!not-base64!!!",
		"LAM1aGVsbG8=", // valid base64, not gzip
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("Decode(%q) should fail", c)
		}
	}
}

func TestEncodedFormIsPrintable(t *testing.T) {
	enc, err := Encode(Envelope{Kind: KindWorkflow, Name: "wf", Source: "x = 1\nprint(x)\n"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range enc {
		if r < 32 || r > 126 {
			t.Fatalf("non-printable rune %q in encoded envelope", r)
		}
	}
}

// Property: every source string survives the round trip byte for byte.
func TestRoundTripProperty(t *testing.T) {
	f := func(name, source string) bool {
		if strings.TrimSpace(source) == "" {
			return true // rejected by validation, fine
		}
		enc, err := Encode(Envelope{Kind: KindPE, Name: name, Source: source})
		if err != nil {
			return false
		}
		dec, err := Decode(enc)
		if err != nil {
			return false
		}
		return dec.Source == source && dec.Name == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionHelps(t *testing.T) {
	big := strings.Repeat("def repeated_function(x):\n    return x\n\n", 200)
	enc, err := Encode(Envelope{Kind: KindPE, Name: "big", Source: big})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(big) {
		t.Errorf("envelope (%d bytes) should compress repetitive source (%d bytes)", len(enc), len(big))
	}
}

// Decode recycles its inflate state: a fresh gzip reader costs ~40 KB per
// call, an order of magnitude more than a small envelope needs.
func TestDecodeReusesInflateState(t *testing.T) {
	enc, err := Encode(Envelope{Kind: KindPE, Name: "IsPrime", Source: "class IsPrime(IterativePE):\n    pass\n"})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Decode(enc); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 16<<10 {
		t.Fatalf("Decode allocates %d bytes per call, want under 16 KiB (inflate state not reused?)", perCall)
	}
}

// A pooled reader that met garbage, or that another goroutine just used,
// must decode the next envelope exactly like a fresh one.
func TestDecodeSurvivesGarbageAndConcurrency(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				src := fmt.Sprintf("x = %d\nprint(x * %d)\n", g, i)
				enc, err := Encode(Envelope{Kind: KindWorkflow, Name: "wf", Source: src})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := Decode("LAM1aGVsbG8="); err == nil {
					t.Error("garbage decoded")
				}
				// Valid gzip header, truncated body: fails mid-stream.
				if _, err := Decode(enc[:len(enc)/2&^3]); err == nil {
					t.Error("truncated envelope decoded")
				}
				if dec, err := Decode(enc); err != nil || dec.Source != src {
					t.Errorf("after garbage: %v, source %q", err, dec.Source)
				}
			}
		}()
	}
	wg.Wait()
}
