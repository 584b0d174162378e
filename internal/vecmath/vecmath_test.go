package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// refDot is the seed scalar loop the kernels must stay bit-identical to
// (embed.Cosine's historic body): one float64 accumulator, index order,
// common prefix.
func refDot(a, b []float32) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// refL2 is the seed scalar Euclidean distance (clustered.distance's
// historic body).
func refL2(a, b []float32) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// TestDotBitIdentical pins Dot/L2 bit-identical to the scalar
// reference loops over random lengths — including mismatched lengths
// (the common-prefix contract) and lengths around the 8-wide unroll
// boundary — so swapping the kernels in can never change a single score.
func TestDotBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 256, 300}
	for _, la := range lengths {
		for _, lb := range lengths {
			a, b := randVec(rng, la), randVec(rng, lb)
			if got, want := Dot(a, b), refDot(a, b); got != want {
				t.Fatalf("Dot(len %d, len %d) = %v, reference loop %v", la, lb, got, want)
			}
			if got, want := L2(a, b), refL2(a, b); got != want {
				t.Fatalf("L2(len %d, len %d) = %v, reference loop %v", la, lb, got, want)
			}
		}
	}
}

// TestDotEdgeValues pins the kernels bit-identical to the reference on
// NaN/Inf edge vectors: the unrolled path must propagate non-finite
// values exactly as the scalar loop does (same order, same accumulator).
func TestDotEdgeValues(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	cases := [][2][]float32{
		{{nan, 1, 2, 3, 4, 5, 6, 7, 8}, {1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{{inf, 1, 2}, {2, 3, 4}},
		{{1, 2, 3}, {-inf, 0, 1}},
		{{inf}, {float32(math.Inf(-1))}},
		{{0, 0, 0, 0, 0, 0, 0, 0, nan}, {1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{{inf, 1, 1, 1, 1, 1, 1, 1}, {0, 1, 1, 1, 1, 1, 1, 1}}, // Inf*0 = NaN inside the unrolled body
	}
	for i, c := range cases {
		got, want := Dot(c[0], c[1]), refDot(c[0], c[1])
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("case %d: Dot = %v, reference %v", i, got, want)
		}
		gl, wl := L2(c[0], c[1]), refL2(c[0], c[1])
		if gl != wl && !(math.IsNaN(gl) && math.IsNaN(wl)) {
			t.Errorf("case %d: L2 = %v, reference %v", i, gl, wl)
		}
	}
}

// TestDotBatch pins the batched kernel to per-call Dot.
func TestDotBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := randVec(rng, 256)
	vecs := make([][]float32, 37)
	for i := range vecs {
		vecs[i] = randVec(rng, 256)
	}
	out := make([]float64, len(vecs))
	DotBatch(q, vecs, out)
	for i, v := range vecs {
		if out[i] != Dot(q, v) {
			t.Fatalf("DotBatch[%d] = %v, Dot = %v", i, out[i], Dot(q, v))
		}
	}
}

// TestQuantizeRoundTrip checks the per-component quantization contract:
// |v_i − scale·codes_i| ≤ scale/2 for finite components, codes clamped
// to [-127, 127].
func TestQuantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		v := randVec(rng, 1+rng.Intn(300))
		codes, scale := Quantize(v)
		if len(codes) != len(v) {
			t.Fatalf("len(codes) = %d, want %d", len(codes), len(v))
		}
		for i, x := range v {
			if codes[i] > 127 || codes[i] < -127 {
				t.Fatalf("code %d = %d outside [-127,127]", i, codes[i])
			}
			err := math.Abs(float64(x) - float64(scale)*float64(codes[i]))
			if err > float64(scale)/2+1e-9 {
				t.Fatalf("component %d: |%v − %v·%d| = %v exceeds scale/2 = %v",
					i, x, scale, codes[i], err, float64(scale)/2)
			}
		}
	}
}

// TestQuantizeDegenerate covers the zero vector and non-finite
// components: scale 0 / zero codes for the former, code 0 for the
// latter, never a panic or an out-of-range code.
func TestQuantizeDegenerate(t *testing.T) {
	codes, scale := Quantize(make([]float32, 16))
	if scale != 0 {
		t.Errorf("zero vector scale = %v, want 0", scale)
	}
	for i, c := range codes {
		if c != 0 {
			t.Errorf("zero vector code %d = %d, want 0", i, c)
		}
	}
	codes, scale = Quantize(nil)
	if len(codes) != 0 || scale != 0 {
		t.Errorf("Quantize(nil) = (%v, %v), want empty codes and scale 0", codes, scale)
	}
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	codes, _ = Quantize([]float32{nan, inf, -inf, 0.5, -0.5})
	for i, c := range codes[:3] {
		if c != 0 {
			t.Errorf("non-finite component %d quantized to %d, want 0", i, c)
		}
	}
}

// TestDotQ8ErrorBound is the property test: across random vector pairs,
// |Dot − sa·sb·DotQ8| stays within the analytic quantization error bound
// the package doc derives.
func TestDotQ8ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		a, b := randVec(rng, n), randVec(rng, n)
		// Mix in unit-norm pairs, the production shape.
		if trial%2 == 0 {
			normalize(a)
			normalize(b)
		}
		qa, sa := Quantize(a)
		qb, sb := Quantize(b)
		approx := float64(DotQ8(qa, qb)) * float64(sa) * float64(sb)
		exact := Dot(a, b)
		bound := QuantizeErrorBound(a, b, sa, sb) + 1e-9
		if diff := math.Abs(exact - approx); diff > bound {
			t.Fatalf("trial %d (n=%d): |exact %v − approx %v| = %v exceeds bound %v",
				trial, n, exact, approx, diff, bound)
		}
	}
}

func normalize(v []float32) {
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return
	}
	for i := range v {
		v[i] = float32(float64(v[i]) / norm)
	}
}

// TestDotQ8CommonPrefix pins DotQ8's mismatched-length contract to the
// same common-prefix rule as Dot.
func TestDotQ8CommonPrefix(t *testing.T) {
	a := []int8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []int8{2, 2, 2}
	if got := DotQ8(a, b); got != 12 {
		t.Fatalf("DotQ8 common prefix = %d, want 12", got)
	}
	if got, want := DotQ8(a, b), DotQ8(b, a); got != want {
		t.Fatalf("DotQ8 not symmetric over prefix: %d vs %d", got, want)
	}
}

// TestQuantizedSet covers the container: upsert/delete/len, the
// restore-path Set, missing-id fallback signalling, and Entries deep
// copies.
func TestQuantizedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s := NewQuantizedSet()
	vecs := map[int][]float32{}
	for id := 1; id <= 20; id++ {
		v := randVec(rng, 64)
		vecs[id] = v
		s.Upsert(id, v)
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d, want 20", s.Len())
	}
	q := randVec(rng, 64)
	qc, qs := Quantize(q)
	for id, v := range vecs {
		got, ok := s.Dot(qc, qs, id)
		if !ok {
			t.Fatalf("Dot(id %d) reported missing", id)
		}
		exact := Dot(q, v)
		if bound := QuantizeErrorBound(q, v, qs, mustScale(v)) + 1e-9; math.Abs(got-exact) > bound {
			t.Fatalf("id %d: quantized score %v vs exact %v exceeds bound %v", id, got, exact, bound)
		}
	}
	if _, ok := s.Dot(qc, qs, 999); ok {
		t.Fatal("Dot(missing id) claimed a score; want the float-fallback signal")
	}
	s.Delete(3)
	if _, _, ok := s.Codes(3); ok {
		t.Fatal("Codes(3) still present after Delete")
	}

	codes, scales := s.Entries()
	if len(codes) != s.Len() || len(scales) != s.Len() {
		t.Fatalf("Entries sizes %d/%d, want %d", len(codes), len(scales), s.Len())
	}
	// Deep copy: mutating the export must not reach the stored entry.
	codes[1][0] += 3
	stored, _, _ := s.Codes(1)
	if stored[0] == codes[1][0] {
		t.Fatal("Entries returned live storage, want a deep copy")
	}

	// Restore path: a set rebuilt from Entries scores identically.
	r := NewQuantizedSet()
	for id := range codes {
		r.Set(id, codes[id], scales[id])
	}
	c1, s1 := Quantize(vecs[1])
	r.Set(1, c1, s1)
	for id := range codes {
		if id == 1 {
			continue
		}
		a, _ := s.Dot(qc, qs, id)
		b, _ := r.Dot(qc, qs, id)
		if a != b {
			t.Fatalf("restored set scores id %d as %v, original %v", id, b, a)
		}
	}
}

func mustScale(v []float32) float32 {
	_, s := Quantize(v)
	return s
}
