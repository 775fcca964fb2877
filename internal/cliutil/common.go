package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"verc3/internal/mc"
	"verc3/internal/spec"
	"verc3/internal/statespace"
	"verc3/internal/visited"
)

// CommonFlags is the flag block every cmd/ binary shares: spec loading,
// the visited-set backend and its sizing, memory statistics, pprof
// profiles, and the telemetry trio. The binaries used to copy-paste these
// declarations; now a new shared flag (like -spec) lands once, here, and
// the help strings cannot drift apart. Binary-specific flags (-system,
// -workers, synthesis modes, ...) stay in the binaries.
type CommonFlags struct {
	Spec       string // -spec: load the system from a JSON model spec
	Stats      bool   // -stats
	Visited    string // -visited (parse with Backend)
	SpillMemMB int    // -spill-mem-mb
	SpillDir   string // -spill-dir
	CPUProfile string // -cpuprofile
	MemProfile string // -memprofile
	Progress   bool   // -progress
	Report     string // -report
	// Timeout is -timeout: the run's wall-clock deadline (0 = none). The
	// deadline cancels cooperatively — the checker stops at the next poll
	// with an Aborted verdict, partial statistics intact — rather than
	// killing the process.
	Timeout time.Duration
}

// RegisterCommon declares the shared flags on the default FlagSet and
// returns the struct their parsed values land in. Call it alongside the
// binary's own flag declarations, before flag.Parse.
func RegisterCommon() *CommonFlags {
	c := &CommonFlags{}
	flag.StringVar(&c.Spec, "spec", "", "load the system from a verc3_model_v1 JSON model spec file instead of the compiled-in zoo")
	flag.BoolVar(&c.Stats, "stats", false, "print the exploration memory profile (peak frontier, trace store, allocations)")
	flag.StringVar(&c.Visited, "visited", "flat", "visited-set backend: flat (open addressing) or spill (RAM-bounded, overflows to disk)")
	flag.IntVar(&c.SpillMemMB, "spill-mem-mb", 0, "spill backend's in-RAM tier budget in MiB (0 = default 64; -visited spill only)")
	flag.StringVar(&c.SpillDir, "spill-dir", "", "parent directory for spill run files (\"\" = OS temp dir; -visited spill only)")
	flag.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	flag.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	flag.BoolVar(&c.Progress, "progress", false, "render a live status line on stderr (EWMA states/sec, depth, frontier, memory)")
	flag.StringVar(&c.Report, "report", "", "write a machine-readable JSON run report to this file at exit")
	flag.DurationVar(&c.Timeout, "timeout", 0, "wall-clock deadline for the run (e.g. 90s, 5m; 0 = none); on expiry the run aborts cooperatively, keeping partial stats, profiles and -report")
	return c
}

// Validate rejects negative values in the shared sizing flags and in any
// binary-specific extras, which are checked first so errors surface in
// the binary's historical flag order.
func (c *CommonFlags) Validate(extra ...IntFlag) error {
	if err := FirstNegative(append(extra,
		IntFlag{Name: "-spill-mem-mb", Value: int64(c.SpillMemMB)},
	)...); err != nil {
		return err
	}
	if c.Timeout < 0 {
		return fmt.Errorf("flag -timeout: negative duration %v (use 0 for no deadline)", c.Timeout)
	}
	return nil
}

// Context builds the run's root context from the shared flags and the
// process signals: bounded by -timeout when set, and cancelled with a
// descriptive cause on the first SIGINT/SIGTERM so the run winds down
// cooperatively — the checker aborts at its next poll, spill run
// directories are cleaned up, and profiles and -report still flush on the
// normal exit path. A second signal exits immediately with code 130 (the
// escape hatch when the first cancel is not being honoured). The returned
// stop function releases the signal handler and the deadline timer; call
// it once the run returns.
func (c *CommonFlags) Context(tool string) (context.Context, func()) {
	base, cancel := context.WithCancelCause(context.Background())
	ctx := context.Context(base)
	stopTimeout := context.CancelFunc(func() {})
	if c.Timeout > 0 {
		ctx, stopTimeout = context.WithTimeoutCause(ctx, c.Timeout,
			fmt.Errorf("-timeout %v elapsed", c.Timeout))
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "%s: received %v; aborting cooperatively (again to exit immediately)\n", tool, s)
		cancel(fmt.Errorf("received %v", s))
		if s, ok = <-sig; ok {
			fmt.Fprintf(os.Stderr, "%s: received second %v; exiting\n", tool, s)
			os.Exit(130)
		}
	}()
	return ctx, func() {
		signal.Stop(sig)
		close(sig)
		stopTimeout()
		cancel(nil)
	}
}

// Backend parses the -visited flag.
func (c *CommonFlags) Backend() (visited.Kind, error) {
	return visited.ParseKind(c.Visited)
}

// ApplyMC fills the model-checker options derived from the common block:
// backend selection and sizing.
func (c *CommonFlags) ApplyMC(opt *mc.Options, backend visited.Kind) {
	opt.Visited = backend
	opt.SpillMem = int64(c.SpillMemMB) << 20
	opt.SpillDir = c.SpillDir
}

// Allocs starts counting heap allocations for -stats: call it before the
// run and the returned function after, on the run's profile, which it
// fills with the allocations made in between (Mallocs, AllocBytes). It is
// one runtime.ReadMemStats pair around the whole run — each read stops the
// world, so nothing inside the run pays for it — and a no-op without
// -stats.
func (c *CommonFlags) Allocs() func(*statespace.Stats) {
	if !c.Stats {
		return func(*statespace.Stats) {}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	return func(s *statespace.Stats) {
		runtime.ReadMemStats(&after)
		s.Mallocs, s.AllocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
}

// LoadSpec loads and compiles the -spec file. It returns (nil, nil) when
// the flag is off; what to do with the model — refuse sketches, bind
// holes — is the binary's decision.
func (c *CommonFlags) LoadSpec() (*spec.Model, error) {
	if c.Spec == "" {
		return nil, nil
	}
	return spec.LoadFile(c.Spec)
}

// Start bundles the startup sequence every binary repeats: pprof
// profiles, the profiled exit wrapper, and telemetry. The returned exit
// function is valid even on error — callers report the error under their
// own name and call exit(2), which still flushes whatever was started.
func (c *CommonFlags) Start(tool, system string) (*Telemetry, func(code int), error) {
	stopProf, err := StartProfiles(c.CPUProfile, c.MemProfile)
	if err != nil {
		return nil, func(code int) { os.Exit(code) }, err
	}
	exit := ProfiledExit(tool, stopProf)
	return StartTelemetry(TelemetryOptions{Tool: tool, System: system, Progress: c.Progress, ReportPath: c.Report}), exit, nil
}
