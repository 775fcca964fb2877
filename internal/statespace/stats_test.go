package statespace

import (
	"strings"
	"testing"
)

// TestStatsSetRetained checks the structural estimate arithmetic.
func TestStatsSetRetained(t *testing.T) {
	s := Stats{States: 100, PeakFrontier: 10, TraceNodes: 100}
	s.SetRetained(40, 48)
	want := int64(100*FingerprintBytes + 10*40 + 100*48)
	if s.BytesRetained != want {
		t.Fatalf("BytesRetained = %d, want %d", s.BytesRetained, want)
	}
	s.TraceNodes = 0
	s.SetRetained(40, 48)
	if want := int64(100*FingerprintBytes + 10*40); s.BytesRetained != want {
		t.Fatalf("no-trace BytesRetained = %d, want %d", s.BytesRetained, want)
	}
	// A backend-measured visited set replaces the 8-bytes-per-state floor.
	s.VisitedBytes = 4096
	s.SetRetained(40, 48)
	if want := int64(4096 + 10*40); s.BytesRetained != want {
		t.Fatalf("measured-visited BytesRetained = %d, want %d", s.BytesRetained, want)
	}
}

// TestStatsMerge checks counters sum and high-water fields take the max.
func TestStatsMerge(t *testing.T) {
	a := Stats{States: 10, Transitions: 20, PeakFrontier: 5, TraceNodes: 1, BytesRetained: 100, VisitedBytes: 80, Backend: "flat", Mallocs: 7, AllocBytes: 70}
	a.Merge(Stats{States: 3, Transitions: 4, PeakFrontier: 9, TraceNodes: 2, BytesRetained: 50, VisitedBytes: 90, Backend: "flat", Mallocs: 1, AllocBytes: 10})
	want := Stats{States: 13, Transitions: 24, PeakFrontier: 9, TraceNodes: 3, BytesRetained: 100, VisitedBytes: 90, Backend: "flat", Mallocs: 8, AllocBytes: 80}
	if a != want {
		t.Fatalf("merged = %+v, want %+v", a, want)
	}
	// Differing backends degrade to "mixed", and stay there.
	a.Merge(Stats{Backend: "spill"})
	if a.Backend != "mixed" {
		t.Fatalf("mixed merge = %+v", a)
	}
	a.Merge(Stats{Backend: "flat"})
	if a.Backend != "mixed" {
		t.Fatalf("second merge = %+v", a)
	}
}

// TestStatsString checks the -stats rendering, including that allocation
// counters only appear when collected.
func TestStatsString(t *testing.T) {
	s := Stats{States: 2, Transitions: 3, PeakFrontier: 1, BytesRetained: 2048}
	got := s.String()
	if !strings.Contains(got, "retained~2.0KiB") || strings.Contains(got, "allocs") {
		t.Errorf("String() = %q", got)
	}
	s.Mallocs, s.AllocBytes = 5, 3<<20
	if got := s.String(); !strings.Contains(got, "allocs=5 (3.0MiB)") {
		t.Errorf("String() with allocs = %q", got)
	}
	s.Backend, s.VisitedBytes = "flat", 1024
	if got := s.String(); !strings.Contains(got, "visited=flat:1.0KiB") {
		t.Errorf("String() with backend = %q", got)
	}
	// Spill figures appear only when something actually spilled.
	if strings.Contains(s.String(), "spilled") {
		t.Errorf("String() shows spill with nothing spilled: %q", s.String())
	}
	s.SpilledBytes, s.SpillRuns = 3<<20, 2
	if got := s.String(); !strings.Contains(got, "spilled=3.0MiB/2-runs") {
		t.Errorf("String() with spill = %q", got)
	}
}

// TestStatsMergeSpill checks the spill figures keep per-dispatch peak
// semantics across Merge, like VisitedBytes.
func TestStatsMergeSpill(t *testing.T) {
	a := Stats{SpilledBytes: 100, SpillRuns: 3}
	a.Merge(Stats{SpilledBytes: 400, SpillRuns: 1})
	if a.SpilledBytes != 400 || a.SpillRuns != 3 {
		t.Fatalf("merged spill = %d bytes / %d runs, want 400 / 3", a.SpilledBytes, a.SpillRuns)
	}
}
