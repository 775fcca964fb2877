package mc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"verc3/internal/faultfs"
	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/obs"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

// cpState / cpSys: a binary tree 0 → {1,2}, v → {2v+1, 2v+2} up to n
// states, with the binary key encodings checkpointing requires and a
// hook for killing the run from inside model code. Level k holds 2^k
// states, so a mid-run kill lands inside a level of real width — the
// interesting case for frontier snapshots.
type cpState int32

func (s cpState) Key() string     { return fmt.Sprintf("s%d", int32(s)) }
func (s cpState) Clone() ts.State { return s }
func (s cpState) AppendKey(d []byte) []byte {
	return append(d, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
}

type cpSys struct {
	name string
	n    int32
	hook func()
}

func (c *cpSys) Name() string        { return c.name }
func (c *cpSys) Initial() []ts.State { return []ts.State{cpState(0)} }
func (c *cpSys) AppendRules(dst []ts.Rule, s ts.State) []ts.Rule {
	if c.hook != nil {
		c.hook()
	}
	v := int32(s.(cpState))
	for _, ch := range [2]int32{2*v + 1, 2*v + 2} {
		if ch < c.n {
			dst = append(dst, ts.Rule{Msg: ch})
		}
	}
	return dst
}
func (c *cpSys) FireRule(_ ts.State, r ts.Rule, _ *ts.Env) (ts.State, error) {
	return cpState(r.Msg), nil
}
func (c *cpSys) RuleName(ts.Rule) string    { return "child" }
func (c *cpSys) Invariants() []ts.Invariant { return nil }
func (c *cpSys) Quiescent(ts.State) bool    { return true }
func (c *cpSys) DecodeKey(data []byte) (ts.State, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("cptree: truncated key: %d bytes", len(data))
	}
	v := int32(data[0]) | int32(data[1])<<8 | int32(data[2])<<16 | int32(data[3])<<24
	return cpState(v), data[4:], nil
}

const cpTreeN = 4095 // full tree: depth 11, widest level 2048

// ckptConfig crosses the two backends (flat in-RAM, spill with a budget
// small enough to actually hit disk) with one and four workers.
type ckptConfig struct {
	name    string
	workers int
	backend visited.Kind
}

func ckptConfigs() []ckptConfig {
	return []ckptConfig{
		{"flat-seq", 1, visited.Flat},
		{"flat-par", 4, visited.Flat},
		{"spill-seq", 1, visited.Spill},
		{"spill-par", 4, visited.Spill},
	}
}

func (c ckptConfig) options(t *testing.T) mc.Options {
	opt := mc.Options{Workers: c.workers, Visited: c.backend}
	if c.backend == visited.Spill {
		opt.SpillMem = 8 << 10 // a few KiB: forces real spill runs on cpTreeN states
		opt.SpillDir = t.TempDir()
	}
	return opt
}

// assertSameRun compares the four counts the resume contract promises
// bit-identical.
func assertSameRun(t *testing.T, label string, got, want *mc.Result) {
	t.Helper()
	if got.Verdict != want.Verdict {
		t.Errorf("%s: verdict = %v, want %v", label, got.Verdict, want.Verdict)
	}
	if got.Stats.VisitedStates != want.Stats.VisitedStates {
		t.Errorf("%s: states = %d, want %d", label, got.Stats.VisitedStates, want.Stats.VisitedStates)
	}
	if got.Stats.FiredTransitions != want.Stats.FiredTransitions {
		t.Errorf("%s: transitions = %d, want %d", label, got.Stats.FiredTransitions, want.Stats.FiredTransitions)
	}
	if got.Stats.MaxDepth != want.Stats.MaxDepth {
		t.Errorf("%s: depth = %d, want %d", label, got.Stats.MaxDepth, want.Stats.MaxDepth)
	}
}

// TestCheckpointResumeBitIdentical is the kill-and-resume harness: for
// each backend × driver configuration, kill the run at several points —
// before the first checkpoint, mid-tree, one level from the end — then
// resume and demand the uninterrupted run's verdict and counts exactly.
//
// The kill points come from cptree's level structure: level k holds 2^k
// states and starts after 2^k − 1 expansions, and each kill lands in the
// middle of level 0, 7, 9 or 10. So at least one level boundary, where
// every worker polls the context, follows every kill, and the run must
// abort. (A kill in the leaf level, 11, may be followed by no poll at all:
// several workers can each finish their last chunk without reaching the
// per-worker poll stride, and the run then rightly ends in Success.)
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, cfg := range ckptConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			baseline, err := mc.Check(&cpSys{name: "cptree", n: cpTreeN}, cfg.options(t))
			if err != nil {
				t.Fatal(err)
			}
			if baseline.Verdict != mc.Success || baseline.Stats.VisitedStates != cpTreeN {
				t.Fatalf("baseline: %v, %d states", baseline.Verdict, baseline.Stats.VisitedStates)
			}
			for _, level := range []int{0, 7, 9, 10} {
				kill := int64(1)<<level - 1 + int64(1)<<level/2 + 1
				dir := t.TempDir()

				ctx, cancel := context.WithCancelCause(context.Background())
				var n atomic.Int64
				killed := &cpSys{name: "cptree", n: cpTreeN, hook: func() {
					if n.Add(1) == kill {
						cancel(errors.New("killed by harness"))
					}
				}}
				opt := cfg.options(t)
				opt.CheckpointDir = dir
				opt.CheckpointEvery = -1
				res, err := mc.CheckCtx(ctx, killed, opt)
				cancel(nil)
				if err != nil {
					t.Fatalf("kill@%d: %v", kill, err)
				}
				if res.Verdict != mc.Aborted {
					t.Fatalf("kill@%d: verdict = %v, want aborted", kill, res.Verdict)
				}
				assertOneCheckpointAtMost(t, dir)

				opt = cfg.options(t)
				opt.CheckpointDir = dir
				opt.CheckpointEvery = -1
				opt.Resume = true
				resumed, err := mc.Check(&cpSys{name: "cptree", n: cpTreeN}, opt)
				if err != nil {
					t.Fatalf("resume@%d: %v", kill, err)
				}
				assertSameRun(t, fmt.Sprintf("resume@%d", kill), resumed, baseline)
				if level > 0 && !resumed.Resumed {
					t.Errorf("resume@%d: Resumed = false after a mid-tree kill", kill)
				}
			}
		})
	}
}

// assertOneCheckpointAtMost: the sweep keeps at most one committed
// checkpoint and never leaves a torn tmp dir behind.
func assertOneCheckpointAtMost(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, e := range ents {
		switch {
		case strings.HasPrefix(e.Name(), "ckpt-d"):
			ckpts++
		case strings.HasPrefix(e.Name(), ".tmp-"):
			t.Errorf("stale tmp dir %q left behind", e.Name())
		default:
			t.Errorf("unexpected entry %q in checkpoint dir", e.Name())
		}
	}
	if ckpts > 1 {
		t.Errorf("%d committed checkpoints, want at most 1", ckpts)
	}
}

// TestCheckpointCrossDriverResume: the drivers are deliberately not part
// of the checkpoint identity — a run killed under one driver must resume
// under the other with identical counts (both dedupe by the same
// canonical-key fingerprint).
func TestCheckpointCrossDriverResume(t *testing.T) {
	baseline, err := mc.Check(&cpSys{name: "cptree", n: cpTreeN}, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, dirn := range []struct {
		name                 string
		killWith, resumeWith int
	}{
		{"seq-to-par", 1, 4},
		{"par-to-seq", 4, 1},
	} {
		t.Run(dirn.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancelCause(context.Background())
			var n atomic.Int64
			killed := &cpSys{name: "cptree", n: cpTreeN, hook: func() {
				if n.Add(1) == 1200 {
					cancel(errors.New("killed by harness"))
				}
			}}
			res, err := mc.CheckCtx(ctx, killed, mc.Options{Workers: dirn.killWith, CheckpointDir: dir, CheckpointEvery: -1})
			cancel(nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != mc.Aborted {
				t.Fatalf("verdict = %v, want aborted", res.Verdict)
			}
			resumed, err := mc.Check(&cpSys{name: "cptree", n: cpTreeN},
				mc.Options{Workers: dirn.resumeWith, CheckpointDir: dir, CheckpointEvery: -1, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, dirn.name, resumed, baseline)
		})
	}
}

// TestCheckpointIdentityMismatch: a checkpoint written by one system must
// refuse to seed a different one — silently mixing fingerprint sets would
// produce garbage verdicts.
func TestCheckpointIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancelCause(context.Background())
	var n atomic.Int64
	killed := &cpSys{name: "cptree-a", n: cpTreeN, hook: func() {
		if n.Add(1) == 1000 {
			cancel(errors.New("killed by harness"))
		}
	}}
	if _, err := mc.CheckCtx(ctx, killed, mc.Options{CheckpointDir: dir, CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	cancel(nil)
	_, err := mc.Check(&cpSys{name: "cptree-b", n: cpTreeN},
		mc.Options{CheckpointDir: dir, CheckpointEvery: -1, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "cptree-a") {
		t.Fatalf("err = %v, want identity mismatch naming the checkpoint's system", err)
	}
}

// TestCheckpointRefusesVersion1: a checkpoint in the version-1 schema —
// the one that still recorded a string_keys identity field — must be
// refused by its version, not resumed under keying it does not describe.
func TestCheckpointRefusesVersion1(t *testing.T) {
	refusesVersion(t, func(meta map[string]any) {
		meta["version"], meta["string_keys"] = 1, false
	}, "version 1, want 4")
}

// TestCheckpointRefusesVersion2: a version-2 checkpoint has MSI messages
// encoded with string types, which the six-byte records of version 3 do
// not decode; it must be refused by its version too.
func TestCheckpointRefusesVersion2(t *testing.T) {
	refusesVersion(t, func(meta map[string]any) { meta["version"] = 2 }, "version 2, want 4")
}

// TestCheckpointRefusesVersion3: a version-3 checkpoint stores fingerprints
// of the FNV-1a hash, which no state hashes to any more; resumed, its
// visited set would deduplicate nothing against new states, so it must be
// refused by its version.
func TestCheckpointRefusesVersion3(t *testing.T) {
	refusesVersion(t, func(meta map[string]any) { meta["version"] = 3 }, "version 3, want 4")
}

// refusesVersion commits one checkpoint, rewrites its meta.json with edit,
// and checks resuming from it fails with an error containing want.
func refusesVersion(t *testing.T, edit func(meta map[string]any), want string) {
	t.Helper()
	dir := t.TempDir()
	ctx, cancel := context.WithCancelCause(context.Background())
	var n atomic.Int64
	killed := &cpSys{name: "cptree", n: cpTreeN, hook: func() {
		if n.Add(1) == 1000 {
			cancel(errors.New("killed by harness"))
		}
	}}
	if _, err := mc.CheckCtx(ctx, killed, mc.Options{CheckpointDir: dir, CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	cancel(nil)
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one committed checkpoint, got %v (%v)", ents, err)
	}
	path := filepath.Join(dir, ents[0].Name(), "meta.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	edit(meta)
	if raw, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = mc.Check(&cpSys{name: "cptree", n: cpTreeN},
		mc.Options{CheckpointDir: dir, CheckpointEvery: -1, Resume: true})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want a refusal containing %q", err, want)
	}
}

// TestCheckpointGating pins the refusals: every configuration the
// snapshot format cannot represent must be an upfront error, not a
// silently wrong checkpoint.
func TestCheckpointGating(t *testing.T) {
	sys := func() *cpSys { return &cpSys{name: "cptree", n: 63} }
	for _, tc := range []struct {
		name string
		opt  mc.Options
		want string
	}{
		{"trace", mc.Options{CheckpointDir: "x", CheckpointEvery: -1, RecordTrace: true}, "trace"},
		{"dfs", mc.Options{CheckpointDir: "x", CheckpointEvery: -1, Order: mc.DFS}, "BFS"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := mc.Check(sys(), tc.opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	t.Run("usage-tracker", func(t *testing.T) {
		// The tracker arrives with the check, not with the session's options.
		sess := mc.NewSession(sys(), mc.Options{CheckpointDir: t.TempDir(), CheckpointEvery: -1})
		_, err := sess.Check(context.Background(), nil, nopUsage{})
		if err == nil || !strings.Contains(err.Error(), "usage tracking") {
			t.Fatalf("err = %v, want usage-tracking refusal", err)
		}
	})
	t.Run("no-decoder", func(t *testing.T) {
		// chain states have no binary encodings at all.
		_, err := mc.Check(newChain(10), mc.Options{CheckpointDir: t.TempDir(), CheckpointEvery: -1})
		if err == nil || !strings.Contains(err.Error(), "KeyDecoder") {
			t.Fatalf("err = %v, want KeyDecoder refusal", err)
		}
	})
}

// TestCheckpointTransientFaultRetried: a transient write glitch during a
// checkpoint save must be retried to success — the run completes, and the
// retries are visible as io-retry telemetry events.
func TestCheckpointTransientFaultRetried(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	inj.Plan(&faultfs.Fault{Transient: true, Only: faultfs.OpWrite, Skip: 2, Repeat: 1})
	col := obs.New()
	res, err := mc.Check(&cpSys{name: "cptree", n: cpTreeN},
		mc.Options{CheckpointDir: t.TempDir(), CheckpointEvery: -1, FS: inj, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success || res.Stats.VisitedStates != cpTreeN {
		t.Fatalf("got %v, %d states", res.Verdict, res.Stats.VisitedStates)
	}
	events, _ := col.Events()
	retries, checkpoints := 0, 0
	for _, e := range events {
		switch e.Kind {
		case obs.EventIORetry:
			retries++
		case obs.EventCheckpoint:
			checkpoints++
		}
	}
	if retries == 0 {
		t.Error("no io-retry events for a retried transient fault")
	}
	if checkpoints == 0 {
		t.Error("no checkpoint events on a checkpointed run")
	}
}

// TestCheckpointHardFaultKeepsLastGood: a hard I/O failure mid-save must
// surface as a run error, must not leave a torn tmp directory behind, and
// must leave the previous committed checkpoint resumable.
func TestCheckpointHardFaultKeepsLastGood(t *testing.T) {
	baseline, err := mc.Check(&cpSys{name: "cptree", n: cpTreeN}, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Phase 1: kill a clean checkpointed run mid-tree so dir holds one
	// committed checkpoint.
	ctx, cancel := context.WithCancelCause(context.Background())
	var n atomic.Int64
	killed := &cpSys{name: "cptree", n: cpTreeN, hook: func() {
		if n.Add(1) == 300 {
			cancel(errors.New("killed by harness"))
		}
	}}
	if _, err := mc.CheckCtx(ctx, killed, mc.Options{CheckpointDir: dir, CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	cancel(nil)
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one committed checkpoint, got %v (%v)", ents, err)
	}
	good := ents[0].Name()

	// Phase 2: resume with the disk failing hard on the first checkpoint
	// write. The resume load itself reads fine; the next save must error
	// out of Check without corrupting the directory.
	inj := faultfs.NewInjector(nil)
	inj.Plan(&faultfs.Fault{Err: faultfs.ErrNoSpace, Only: faultfs.OpWrite})
	_, err = mc.Check(&cpSys{name: "cptree", n: cpTreeN},
		mc.Options{CheckpointDir: dir, CheckpointEvery: -1, Resume: true, FS: inj})
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("err = %v, want checkpoint save failure", err)
	}
	assertOneCheckpointAtMost(t, dir)
	ents, err = os.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != good {
		t.Fatalf("last good checkpoint %q not preserved: %v (%v)", good, ents, err)
	}

	// Phase 3: with the disk healthy again, the surviving checkpoint still
	// resumes to the uninterrupted run's exact counts.
	resumed, err := mc.Check(&cpSys{name: "cptree", n: cpTreeN},
		mc.Options{CheckpointDir: dir, CheckpointEvery: -1, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "resume-after-hard-fault", resumed, baseline)
	if !resumed.Resumed {
		t.Error("Resumed = false after resuming from the surviving checkpoint")
	}
}

// FuzzCheckpointRoundTrip fuzzes the checkpoint frontier decoder on the
// paper's MSI system: DecodeKey must never panic on hostile bytes, and
// whatever it does accept must re-encode to exactly the bytes it
// consumed — the property resume correctness rests on.
func FuzzCheckpointRoundTrip(f *testing.F) {
	sys := msi.New(msi.Config{Caches: 3})
	var frontier []ts.State
	for _, s := range sys.Initial() {
		f.Add(s.(ts.KeyAppender).AppendKey(nil))
		frontier = append(frontier, s)
	}
	// Seed a couple of non-initial states too.
	for depth := 0; depth < 2 && len(frontier) > 0; depth++ {
		var next []ts.State
		for _, s := range frontier {
			for _, r := range sys.AppendRules(nil, s) {
				ns, err := sys.FireRule(s, r, nil)
				if err != nil {
					continue
				}
				f.Add(ns.(ts.KeyAppender).AppendKey(nil))
				next = append(next, ns)
			}
		}
		frontier = next
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, rest, err := sys.DecodeKey(data)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		if len(rest) > len(data) {
			t.Fatalf("decoder grew the input: %d leftover of %d", len(rest), len(data))
		}
		// Whatever the decoder lets through, a resumed run enumerates: every
		// message must be of a kind the rule and name tables know (the decoder
		// rejects the rest), whatever else about the state is off.
		for _, r := range sys.AppendRules(nil, s) {
			if sys.RuleName(r) == "" {
				t.Fatalf("rule %+v of decoded state %q has no name", r, s.Key())
			}
		}
		// The decoder tolerates non-canonical input (redundant varints,
		// out-of-order network messages get re-canonicalized), so raw
		// hostile bytes need not re-encode identically. What resume
		// correctness rests on is that the canonical form — what AppendKey
		// writes into checkpoint files — is a fixed point: encode ∘ decode
		// on it must be the identity, bit for bit.
		enc := s.(ts.KeyAppender).AppendKey(nil)
		s2, rest2, err := sys.DecodeKey(enc)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v (% x)", err, enc)
		}
		if len(rest2) != 0 {
			t.Fatalf("canonical encoding not fully consumed: %d bytes left", len(rest2))
		}
		if enc2 := s2.(ts.KeyAppender).AppendKey(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical form is not a fixed point:\nfirst  %x\nsecond %x", enc, enc2)
		}
		if s.Key() != s2.Key() {
			t.Fatalf("round-trip changed the state: %q vs %q", s.Key(), s2.Key())
		}
	})
}
