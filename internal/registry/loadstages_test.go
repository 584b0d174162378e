package registry

import (
	"fmt"
	"runtime"
	"testing"

	"laminar/internal/core"
	"laminar/internal/telemetry"
)

// TestLoadStageGauges: a load through a base snapshot and a journal sets
// every stage of laminar_registry_load_stage_seconds, and together the
// stages account for the load: no less than half of its wall-clock time
// (the rest is opening files and taking locks), no more than the overlap
// allows — two restores run side by side, section decodes on up to
// GOMAXPROCS processors.
func TestLoadStageGauges(t *testing.T) {
	live, u, path := lexWallStore(t)
	// Enough journaled work that opening files is a small part of the load,
	// under a policy that keeps it a journal.
	live.SetDeltaPolicy(DeltaPolicy{CompactRatio: 100})
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("lateArrival%03d", i)
		if _, _, err := live.UpsertPE(u.UserID, core.AddPERequest{
			PEName: name, Description: "registered after the base snapshot",
			PECode: lexWallEnvelope(t, name, fmt.Sprintf("gate_9%03d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.SaveDelta(path); err != nil {
		t.Fatal(err)
	}
	if segs, _ := live.DeltaChainInfo(); segs != 1 {
		t.Fatalf("journal holds %d segments, want 1", segs)
	}

	s := NewStore()
	s.SetTelemetry(telemetry.NewRegistry())
	if err := s.Load(path); err != nil {
		t.Fatal(err)
	}
	stages := s.metrics.loadStageSeconds.Values()
	var sum float64
	for _, stage := range []string{"records", "vectors", "index_sections", "lexical_sections", "index_restore", "lexical_restore", "replay"} {
		v, ok := stages[stage]
		if !ok || v <= 0 {
			t.Errorf("stage %q = %v (set: %v)", stage, v, ok)
		}
		sum += v
	}
	if len(stages) != 7 {
		t.Errorf("stages exported: %v, want exactly the seven documented", stages)
	}
	wall := s.metrics.loadSeconds.Sum()
	if overlap := float64(max(2, runtime.GOMAXPROCS(0))); sum < 0.5*wall || sum > overlap*wall {
		t.Errorf("stages sum to %.6fs, load took %.6fs: want within [0.5, %.0f] of it", sum, wall, overlap)
	}
	t.Logf("load %.3f ms, stages %v", 1000*wall, stages)
}
