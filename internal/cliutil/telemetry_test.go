package cliutil

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"verc3/internal/obs"
)

// TestTelemetryOff pins the zero-cost contract: with every telemetry
// flag off there is no collector, no sampler, no server — only the
// buffered Status writer, which holds its content until Finish.
func TestTelemetryOff(t *testing.T) {
	var out bytes.Buffer
	tel, err := StartTelemetry(TelemetryOptions{Tool: "test", Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if tel.Collector() != nil {
		t.Error("telemetry off, but a collector was allocated")
	}
	if tel.Addr() != "" {
		t.Errorf("telemetry off, but metrics bound to %q", tel.Addr())
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
	tel, err := StartTelemetry(TelemetryOptions{
		Tool: "cliutil-test", System: "unit", ReportPath: path, Out: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
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

// TestTelemetryMetricsInFlight scrapes the -metrics-addr endpoint while
// the run is still live: every counter family must already be present
// (zero or not) so dashboards see a stable schema from the first scrape.
func TestTelemetryMetricsInFlight(t *testing.T) {
	tel, err := StartTelemetry(TelemetryOptions{
		Tool: "cliutil-test", MetricsAddr: "127.0.0.1:0", Out: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Finish(nil)
	tel.Collector().Count(obs.CStates, 7)
	resp, err := http.Get("http://" + tel.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, family := range []string{
		"verc3_states_total 7",
		"verc3_transitions_total 0",
		"verc3_elapsed_seconds",
		"verc3_phase_seconds_count",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	if err := tel.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + tel.Addr() + "/metrics"); err == nil {
		t.Error("metrics server still serving after Finish")
	}
}
