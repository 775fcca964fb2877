package cliutil

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFirstNegative covers the validation the cmd/ binaries share: zero
// and positive values pass (0 means "default"), the first negative flag —
// and only the first — is reported by name with its offending value.
func TestFirstNegative(t *testing.T) {
	if err := FirstNegative(); err != nil {
		t.Errorf("no flags: %v", err)
	}
	if err := FirstNegative(
		IntFlag{"-workers", 0},
		IntFlag{"-max-states", 8},
		IntFlag{"-spill-mem-mb", 64},
	); err != nil {
		t.Errorf("all valid: %v", err)
	}
	err := FirstNegative(
		IntFlag{"-workers", 4},
		IntFlag{"-max-states", -1},
		IntFlag{"-spill-mem-mb", -3},
	)
	if err == nil {
		t.Fatal("negative -max-states accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "-max-states") || !strings.Contains(msg, "-1") {
		t.Errorf("error does not name the first offender: %q", msg)
	}
	if strings.Contains(msg, "-spill-mem-mb") {
		t.Errorf("error names a later flag: %q", msg)
	}
	if !strings.Contains(msg, "default") {
		t.Errorf("error does not point at the 0-means-default convention: %q", msg)
	}
}

// TestStartProfilesWritesBoth checks the -cpuprofile/-memprofile plumbing
// end to end: both files exist and are non-empty after stop, and stop is
// idempotent.
func TestStartProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU and heap so the profiles have content.
	var sink []byte
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 100)...)
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	if err := stop(); err != nil {
		t.Errorf("second stop: %v", err)
	}
}

// TestStartProfilesOff checks that empty paths mean "off": no files, no
// error, stop is a no-op.
func TestStartProfilesOff(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartProfilesBadPath checks an uncreatable CPU-profile path is
// reported up front (the binaries exit 2 on it) rather than at stop time.
func TestStartProfilesBadPath(t *testing.T) {
	_, err := StartProfiles(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof"), "")
	if err == nil {
		t.Fatal("uncreatable -cpuprofile path accepted")
	}
	if !strings.Contains(err.Error(), "-cpuprofile") {
		t.Errorf("error does not name the flag: %v", err)
	}
}

// TestRemovedBackendsRejected: the map and bitstate backends and the
// -bitstate-mb flag are gone, and asking for them is an error that lists
// the backends there are.
func TestRemovedBackendsRejected(t *testing.T) {
	defer func(saved *flag.FlagSet) { flag.CommandLine = saved }(flag.CommandLine)
	for _, args := range [][]string{{"-visited", "map"}, {"-visited", "bitstate"}, {"-bitstate-mb", "4"}} {
		var usage strings.Builder
		flag.CommandLine = flag.NewFlagSet("verc3-test", flag.ContinueOnError)
		flag.CommandLine.SetOutput(&usage)
		cf := RegisterCommon()
		err := flag.CommandLine.Parse(args)
		msg := usage.String() // a flag the set does not define: the error comes with the usage
		if err == nil {
			_, err = cf.Backend()
			msg = fmt.Sprint(err)
		}
		if err == nil || !strings.Contains(msg, "flat") || !strings.Contains(msg, "spill") {
			t.Errorf("%v: err = %v, want a rejection listing flat, spill (got %q)", args, err, msg)
		}
	}
}
