package cliutil

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"
	"time"

	"verc3/internal/obs"
)

// TestTelemetryOff pins the zero-cost contract: with every telemetry
// flag off there is no collector and no sampler — only the buffered
// Status writer, which holds its content until Finish.
func TestTelemetryOff(t *testing.T) {
	var out bytes.Buffer
	tel := StartTelemetry(TelemetryOptions{Tool: "test", Out: &out})
	if tel.Collector() != nil {
		t.Error("telemetry off, but a collector was allocated")
	}
	io.WriteString(tel.Status(), "summary line\n")
	if out.Len() != 0 {
		t.Errorf("summary escaped before Finish: %q", out.String())
	}
	if err := tel.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "summary line\n" {
		t.Errorf("flushed summary %q", got)
	}
	// Idempotent: a second Finish is a no-op, not a double flush.
	io.WriteString(tel.Status(), "late\n")
	if err := tel.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "summary line\n" {
		t.Errorf("second Finish changed output to %q", got)
	}
}

// TestTelemetryReport drives the -report path end to end: counters flow
// through the shared collector, Finish writes the file, and ReadReport
// round-trips it through schema validation with the run's verdict and
// the effective flag set.
func TestTelemetryReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	tel := StartTelemetry(TelemetryOptions{
		Tool: "cliutil-test", System: "unit", ReportPath: path, Out: &out,
	})
	col := tel.Collector()
	if col == nil {
		t.Fatal("-report set but no collector")
	}
	col.Count(obs.CStates, 42)
	col.MarkTimeline()
	if err := tel.Finish(&RunSummary{Verdict: "success"}); err != nil {
		t.Fatal(err)
	}
	r, err := obs.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tool != "cliutil-test" || r.System != "unit" || r.Verdict != "success" {
		t.Errorf("report identity: %+v", r)
	}
	if r.Final.Counters[obs.CStates] != 42 {
		t.Errorf("final states = %d, want 42", r.Final.Counters[obs.CStates])
	}
	if len(r.Options) == 0 {
		t.Error("report captured no flag options")
	}
}

// TestTelemetryMetricsInFlight reads the run's collector while the run is
// still live: a count and a phase timing published mid-run are already
// visible, with every other counter present at zero.
func TestTelemetryMetricsInFlight(t *testing.T) {
	tel := StartTelemetry(TelemetryOptions{
		Tool: "cliutil-test", ReportPath: filepath.Join(t.TempDir(), "report.json"), Out: io.Discard,
	})
	defer tel.Finish(nil)
	col := tel.Collector()
	col.Count(obs.CStates, 7)
	col.ObservePhase(obs.PhaseFire, 3*time.Microsecond)
	s := col.Snapshot()
	if s.Counters[obs.CStates] != 7 || s.Counters[obs.CTransitions] != 0 {
		t.Errorf("in-flight snapshot: states %d, transitions %d, want 7 and 0",
			s.Counters[obs.CStates], s.Counters[obs.CTransitions])
	}
	if s.ElapsedNS <= 0 {
		t.Errorf("in-flight snapshot elapsed = %d ns", s.ElapsedNS)
	}
	if got := col.Phases()[obs.PhaseFire.String()].Count; got != 1 {
		t.Errorf("fire phase count = %d, want 1", got)
	}
	if err := tel.Finish(nil); err != nil {
		t.Fatal(err)
	}
}
