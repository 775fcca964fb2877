package cliutil

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"verc3/internal/obs"
	"verc3/internal/statespace"
)

// TelemetryOptions configures StartTelemetry from the two telemetry flags
// every cmd/ binary exposes (-progress, -report).
type TelemetryOptions struct {
	Tool       string // binary name, for log prefixes and the report
	System     string // system under test ("" for multi-system tools)
	Progress   bool   // -progress: live status line on stderr
	ReportPath string // -report: end-of-run JSON report path ("" = off)
	// Out overrides the summary destination (default os.Stdout); tests
	// point it at a buffer.
	Out io.Writer
}

// RunSummary carries the run outcome Finish folds into the -report file.
type RunSummary struct {
	Verdict string
	// Aborted marks a run cut short (cancel, timeout, contained panic);
	// AbortCause carries the rendered cause.
	Aborted    bool
	AbortCause string
	Space      statespace.Stats
}

// Telemetry owns a binary's live-observability machinery: the shared
// obs.Collector (nil when every telemetry flag is off, so the hot paths
// pay nothing), the stderr progress renderer and its sampler, the pending
// -report, and the single buffered Status writer through which the
// binary's human-readable summary flows.
//
// The Status writer is the fix for the old interleaving bug: tools used
// to fmt.Printf summary fragments while background goroutines (sampler
// repaints, synthesis logs) were still writing, tearing lines on a TTY.
// Now all summary output is staged in one buffer and flushed exactly
// once, inside Finish, after the sampler has stopped and the status
// line is erased.
type Telemetry struct {
	opt     TelemetryOptions
	col     *obs.Collector
	prog    *obs.Progress
	sampler *obs.Sampler
	status  *bufio.Writer
	report  *obs.Report
	done    bool
}

// StartTelemetry wires the telemetry flags. Call it after flag.Parse
// (the -report Options map is captured via flag.VisitAll). The returned
// Telemetry is never nil; with both features off it degrades to just the
// buffered Status writer and a nil Collector.
func StartTelemetry(opt TelemetryOptions) *Telemetry {
	if opt.Out == nil {
		opt.Out = os.Stdout
	}
	t := &Telemetry{opt: opt, status: bufio.NewWriter(opt.Out)}
	if !opt.Progress && opt.ReportPath == "" {
		return t
	}
	t.col = obs.New()
	if opt.ReportPath != "" {
		t.report = obs.NewReport(opt.Tool, opt.System)
		t.report.Options = make(map[string]string)
		flag.VisitAll(func(f *flag.Flag) { t.report.Options[f.Name] = f.Value.String() })
	}
	if opt.Progress {
		t.prog = obs.NewProgress(os.Stderr)
	}
	// The sampler feeds both the status line and the report timeline.
	var onSample func(prev, cur obs.Snapshot)
	if t.prog != nil {
		onSample = t.prog.Sample
	}
	t.sampler = t.col.StartSampler(obs.DefaultSampleInterval, onSample)
	return t
}

// Collector returns the run's collector — nil when telemetry is off,
// which every consumer (mc.Options.Obs, core.Config.Obs) accepts at
// zero cost.
func (t *Telemetry) Collector() *obs.Collector { return t.col }

// Status returns the buffered summary writer. Everything written here
// appears atomically when Finish flushes it; nothing before.
func (t *Telemetry) Status() io.Writer { return t.status }

// Logf writes an immediate log line to stderr without tearing the
// -progress status line (which is erased first and repainted on the
// next sample).
func (t *Telemetry) Logf(format string, args ...any) {
	if t.prog != nil {
		t.prog.Logf(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// Finish tears the telemetry down in output-safe order — stop the
// sampler, erase the status line, flush the staged summary — and then,
// when sum is non-nil and -report was requested, writes the run report.
// A nil sum (error paths) performs teardown and flush only, since a report
// without a verdict would fail validation anyway. Finish is idempotent.
func (t *Telemetry) Finish(sum *RunSummary) error {
	if t.done {
		return nil
	}
	t.done = true
	t.sampler.Stop()
	if t.prog != nil {
		t.prog.Clear()
	}
	var first error
	if err := t.status.Flush(); err != nil {
		first = fmt.Errorf("flushing summary: %w", err)
	}
	if sum != nil && t.report != nil {
		t.report.Verdict = sum.Verdict
		t.report.Aborted = sum.Aborted
		t.report.AbortCause = sum.AbortCause
		t.report.Space = sum.Space
		t.report.Finish(t.col)
		if err := t.report.Write(t.opt.ReportPath); err != nil && first == nil {
			first = fmt.Errorf("-report: %w", err)
		}
	}
	return first
}
