package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"laminar/internal/embed"
	"laminar/internal/vecmath"
)

// refDot is the naive scalar baseline the vecmath kernels are measured
// against: the textbook one-accumulator loop every scoring site in the
// codebase used before the kernel consolidation.
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

// refDotQ8 is the equivalent naive int8 loop.
func refDotQ8(a, b []int8) int32 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s int32
	for i := 0; i < n; i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// timeOp reports the mean duration of f over iters calls.
func timeOp(iters int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return time.Since(start) / time.Duration(iters)
}

// RunVecBench measures the vecmath scoring kernels against their naive
// scalar baselines at the serving dimensionality — the laminar-bench face
// of the `go test -bench` benchmarks in internal/vecmath. It doubles as an
// integrity check: the exact kernel must agree with the scalar reference
// bit for bit.
func RunVecBench() (string, error) {
	const dotIters = 200000
	rng := rand.New(rand.NewSource(29))
	dim := embed.Dim
	a, b := make([]float32, dim), make([]float32, dim)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64())
	}
	qa, _ := vecmath.Quantize(a)
	qb, _ := vecmath.Quantize(b)

	if got, want := vecmath.Dot(a, b), refDot(a, b); got != want {
		return "", fmt.Errorf("vecmath.Dot diverged from the scalar reference: %v != %v", got, want)
	}
	if got, want := vecmath.DotQ8(qa, qb), refDotQ8(qa, qb); got != want {
		return "", fmt.Errorf("vecmath.DotQ8 diverged from the scalar reference: %d != %d", got, want)
	}

	var sinkF float64
	var sinkI int32
	scalarF := timeOp(dotIters, func() { sinkF += refDot(a, b) })
	kernelF := timeOp(dotIters, func() { sinkF += vecmath.Dot(a, b) })
	scalarI := timeOp(dotIters, func() { sinkI += refDotQ8(qa, qb) })
	kernelI := timeOp(dotIters, func() { sinkI += vecmath.DotQ8(qa, qb) })

	var sb strings.Builder
	fmt.Fprintf(&sb, "Scoring-kernel throughput at dim %d (%d iterations each; sinks %g/%d)\n",
		dim, dotIters, sinkF, sinkI)
	sb.WriteString("  kernel            scalar/op    vecmath/op   speedup\n")
	ratio := func(s, k time.Duration) float64 {
		if k <= 0 {
			return 0
		}
		return float64(s) / float64(k)
	}
	fmt.Fprintf(&sb, "  float32 dot     %11v  %12v  %7.2fx\n", scalarF, kernelF, ratio(scalarF, kernelF))
	fmt.Fprintf(&sb, "  int8 dot (q8)   %11v  %12v  %7.2fx\n", scalarI, kernelI, ratio(scalarI, kernelI))
	fmt.Fprintf(&sb, "  q8 vs exact dot: %.2fx cheaper per score\n", ratio(kernelF, kernelI))
	return sb.String(), nil
}
