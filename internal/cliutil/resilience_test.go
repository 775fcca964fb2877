package cliutil

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestTimeoutValidation: negative -timeout is a usage error; zero and
// positive pass.
func TestTimeoutValidation(t *testing.T) {
	for _, d := range []time.Duration{0, time.Second, time.Hour} {
		c := &CommonFlags{Timeout: d}
		if err := c.Validate(); err != nil {
			t.Errorf("Timeout=%v: %v", d, err)
		}
	}
	c := &CommonFlags{Timeout: -time.Second}
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "-timeout") {
		t.Fatalf("negative timeout: err = %v, want -timeout usage error", err)
	}
}

// TestContextTimeout: -timeout puts a deadline with a descriptive cause on
// the run context; without it the context has no deadline. Either way the
// stop function must release cleanly and at most cancel with a nil cause.
func TestContextTimeout(t *testing.T) {
	c := &CommonFlags{Timeout: 20 * time.Millisecond}
	ctx, stop := c.Context("test-tool")
	defer stop()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("no deadline with -timeout set")
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never fired")
	}
	if cause := context.Cause(ctx); cause == nil || !strings.Contains(cause.Error(), "-timeout") {
		t.Errorf("cause = %v, want the -timeout explanation", cause)
	}

	c = &CommonFlags{}
	ctx, stop = c.Context("test-tool")
	if _, ok := ctx.Deadline(); ok {
		t.Error("deadline without -timeout")
	}
	stop()
	// After stop the context winds down with context.Canceled, never a
	// misleading cause.
	<-ctx.Done()
	if cause := context.Cause(ctx); !errors.Is(cause, context.Canceled) {
		t.Errorf("cause after stop = %v, want plain Canceled", cause)
	}
}

// TestRunSummaryAbortFieldsReachReport: Finish must fold the abort
// outcome into the report.
func TestRunSummaryAbortFieldsReachReport(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/r.json"
	tel := StartTelemetry(TelemetryOptions{Tool: "t", System: "s", ReportPath: path, Out: discard{}})
	if err := tel.Finish(&RunSummary{Verdict: "aborted", Aborted: true, AbortCause: "received interrupt"}); err != nil {
		t.Fatal(err)
	}
	if !tel.report.Aborted || tel.report.AbortCause != "received interrupt" {
		t.Fatalf("report = %+v, abort fields did not land", tel.report)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
