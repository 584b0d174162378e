// Package vecmath is the scoring kernel layer for the vector-search hot
// path: exact float32 dot products and Euclidean distances in unrolled,
// bounds-check-eliminated form, int8 scalar quantization with an analytic
// error bound, and a QuantizedSet side-structure indexes maintain next to
// their float vectors for a cheap candidate-selection pass.
//
// # Contracts
//
// Every exact kernel scores the *common prefix* of its two arguments —
// the contract embed.Cosine has always had — and accumulates in float64
// with a single accumulator in index order, so Dot, DotBatch and L2
// are bit-identical to the scalar one-at-a-time loops they
// replaced. That identity is load-bearing: the clustered index's
// RecallTarget=1.0 proof rule promises byte-identical-to-Flat results,
// and it holds only because every implementation of these kernels sums
// in the same order. (DotQ8 is exempt: integer addition is associative,
// so it is free to use multiple accumulators, which is where its speed
// comes from.)
//
// # Build tags
//
// The default kernels (kernels.go) use explicit slice re-bounding so the
// compiler eliminates the per-element bounds checks, with unrolled
// multi-accumulator loops exactly where reordering is exact (the integer
// DotQ8 path); on amd64 an AVX2 assembly kernel replaces DotQ8's inner
// loop when CPUID allows. Building with `-tags purego` swaps in the
// portable scalar twins (kernels_purego.go) and disables the assembly;
// both paths are tested against the same reference semantics in CI
// (`go test -tags purego`).
//
// # Quantization error model
//
// Quantize maps a vector to int8 codes with one symmetric per-vector
// scale s = max|v_i|/127, so v_i = s·q_i + e_i with |e_i| ≤ s/2. For two
// vectors a, b quantized with scales sa, sb:
//
//	|Dot(a,b) − sa·sb·DotQ8(qa,qb)| ≤ Σ_i (|a_i|·sb/2 + |b_i|·sa/2 + sa·sb/4)
//
// QuantizeErrorBound computes that bound; the property tests pin DotQ8
// inside it. The bound shrinks with the vector norms' spread: for the
// unit vectors embedding models emit it is ~1e-2, far below typical
// score gaps, and callers are expected to exact-rescore the final top-k
// from float32 anyway.
package vecmath

import "math"

// Dot is the exact similarity kernel: a float64 dot product over the
// common prefix of a and b, bit-identical to the historic scalar loop
// (single accumulator, index order). For the L2-normalized vectors the
// embedding models emit this is the cosine similarity.
func Dot(a, b []float32) float64 {
	if len(b) < len(a) {
		a = a[:len(b)]
	} else {
		b = b[:len(a)]
	}
	return dotKernel(a, b)
}

// DotBatch scores one query against many stored vectors, writing
// Dot(q, vecs[i]) into out[i]. It exists so batched callers amortize the
// call overhead of a scan loop; out must have at least len(vecs)
// entries.
func DotBatch(q []float32, vecs [][]float32, out []float64) {
	for i, v := range vecs {
		out[i] = Dot(q, v)
	}
}

// L2 is the Euclidean distance over the common prefix of a and b,
// bit-identical to the scalar loop (squared differences summed in index
// order into one float64, square root at the end).
func L2(a, b []float32) float64 {
	if len(b) < len(a) {
		a = a[:len(b)]
	} else {
		b = b[:len(a)]
	}
	return math.Sqrt(l2Kernel(a, b))
}

// Quantize maps v to int8 codes with a symmetric per-vector scale:
// scale = max|v_i|/127 and codes_i = round(v_i/scale), clamped to
// [-127, 127]. The zero vector (and a vector with no finite components)
// returns all-zero codes with scale 0. Non-finite components quantize
// to 0 — quantized scores are a candidate-selection heuristic and the
// exact rescore sees the real values.
func Quantize(v []float32) (codes []int8, scale float32) {
	var maxAbs float32
	for _, x := range v {
		a := x
		if a < 0 {
			a = -a
		}
		if a > maxAbs && !math.IsInf(float64(a), 0) {
			maxAbs = a
		}
	}
	codes = make([]int8, len(v))
	if maxAbs == 0 {
		return codes, 0
	}
	scale = maxAbs / 127
	inv := 1 / float64(scale)
	for i, x := range v {
		if x != x || math.IsInf(float64(x), 0) {
			continue // non-finite component: code 0
		}
		q := math.Round(float64(x) * inv)
		switch {
		case q > 127:
			q = 127
		case q < -127:
			q = -127
		}
		codes[i] = int8(q)
	}
	return codes, scale
}

// DotQ8 is the quantized dot product over the common prefix of two code
// vectors, accumulated in int32. Integer addition is associative, so the
// kernel is free to split the sum across accumulators — this is the fast
// path the ≥4x throughput target is measured on. The int32 accumulator
// is exact up to ~133k dimensions (127²·n < 2³¹).
func DotQ8(a, b []int8) int32 {
	if len(b) < len(a) {
		a = a[:len(b)]
	} else {
		b = b[:len(a)]
	}
	return dotQ8Kernel(a, b)
}

// QuantizeErrorBound is the analytic bound on |Dot(a,b) − sa·sb·DotQ8|
// for vectors quantized by Quantize with scales sa and sb (see the
// package doc's error model). It is computed over the common prefix,
// matching Dot's contract.
func QuantizeErrorBound(a, b []float32, sa, sb float32) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	ha, hb := float64(sa)/2, float64(sb)/2
	var bound float64
	for i := 0; i < n; i++ {
		bound += math.Abs(float64(a[i]))*hb + math.Abs(float64(b[i]))*ha + ha*hb
	}
	return bound
}

// qentry is one stored quantized vector.
type qentry struct {
	codes []int8
	scale float32
}

// QuantizedSet holds the int8 quantized companions of a float vector
// set, keyed by the same ids. It is a plain container with no internal
// locking — the owning index guards it with the same mutex that guards
// the float vectors it mirrors.
type QuantizedSet struct {
	entries map[int]qentry
}

// NewQuantizedSet returns an empty set.
func NewQuantizedSet() *QuantizedSet {
	return &QuantizedSet{entries: map[int]qentry{}}
}

// Upsert quantizes v and stores its codes under id.
func (s *QuantizedSet) Upsert(id int, v []float32) {
	codes, scale := Quantize(v)
	s.entries[id] = qentry{codes: codes, scale: scale}
}

// Set stores already-quantized codes under id (the snapshot-restore
// path). The codes are copied.
func (s *QuantizedSet) Set(id int, codes []int8, scale float32) {
	s.entries[id] = qentry{codes: append([]int8(nil), codes...), scale: scale}
}

// Delete removes the entry for id, if present.
func (s *QuantizedSet) Delete(id int) { delete(s.entries, id) }

// Len reports the number of stored entries.
func (s *QuantizedSet) Len() int { return len(s.entries) }

// Codes returns the stored codes and scale for id. The returned slice is
// the live storage — callers must not mutate it.
func (s *QuantizedSet) Codes(id int) ([]int8, float32, bool) {
	e, ok := s.entries[id]
	return e.codes, e.scale, ok
}

// Dot scores the stored entry for id against a quantized query,
// rescaling the int32 code product back to the float score's range. The
// second return is false when no entry exists for id — the caller falls
// back to exact float scoring for that vector.
func (s *QuantizedSet) Dot(qcodes []int8, qscale float32, id int) (float64, bool) {
	e, ok := s.entries[id]
	if !ok {
		return 0, false
	}
	return float64(DotQ8(qcodes, e.codes)) * float64(qscale) * float64(e.scale), true
}

// Entries returns deep copies of the stored codes and scales, keyed by
// id — the serialization surface for snapshotting the set.
func (s *QuantizedSet) Entries() (codes map[int][]int8, scales map[int]float32) {
	codes = make(map[int][]int8, len(s.entries))
	scales = make(map[int]float32, len(s.entries))
	for id, e := range s.entries {
		codes[id] = append([]int8(nil), e.codes...)
		scales[id] = e.scale
	}
	return codes, scales
}
