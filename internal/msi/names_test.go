package msi

import (
	"fmt"
	"testing"

	"verc3/internal/ts"
)

// TestNameTablesMatchFmtForms: the shared name tables are built by
// concatenation, once per shape; every entry must equal, byte for byte, the
// fmt form the per-System tables it replaces were built with — golden traces
// and the Fair variant's fairness requirements match transitions by these
// strings.
func TestNameTablesMatchFmtForms(t *testing.T) {
	for caches := 1; caches <= 8; caches++ {
		for _, fair := range []bool{false, true} {
			nt := namesFor(caches, fair)
			if nt != namesFor(caches, fair) {
				t.Fatalf("caches=%d fair=%v: table built twice", caches, fair)
			}
			seen := 0
			check := func(idx uint32, want string) {
				t.Helper()
				seen++
				if got := nt.all[idx]; got != want {
					t.Fatalf("caches=%d fair=%v: name %d = %q, want %q", caches, fair, idx, got, want)
				}
			}
			from := func(j int) string {
				if j == caches {
					return "dir"
				}
				return fmt.Sprintf("c%d", j)
			}
			for i := 0; i < caches; i++ {
				check(nt.issue(i, nameIssueRead), fmt.Sprintf("c%d: issue read", i))
				check(nt.issue(i, nameIssueWrite), fmt.Sprintf("c%d: issue write", i))
				check(nt.issue(i, nameIssueUpgrade), fmt.Sprintf("c%d: issue upgrade", i))
				check(nt.issue(i, nameStore), fmt.Sprintf("c%d: store", i))
				for k, mt := range msgKindNames {
					for cs := CacheState(0); cs < numCacheStates; cs++ {
						check(nt.cacheRecvName(i, MsgKind(k), cs), fmt.Sprintf("c%d: recv %s in %s", i, mt, cs))
						for j := 0; fair && j <= caches; j++ {
							check(nt.cacheFromName(i, j, MsgKind(k), cs), fmt.Sprintf("c%d: recv %s from %s in %s", i, mt, from(j), cs))
						}
					}
				}
			}
			for k, mt := range msgKindNames {
				for ds := DirState(0); ds < numDirStates; ds++ {
					check(nt.dirRecvName(MsgKind(k), ds), fmt.Sprintf("dir: recv %s in %s", mt, ds))
					for j := 0; fair && j < caches; j++ {
						check(nt.dirFromName(j, MsgKind(k), ds), fmt.Sprintf("dir: recv %s from c%d in %s", mt, j, ds))
					}
				}
			}
			// The blocks tile the table: every entry was reached exactly once.
			if seen != len(nt.all) {
				t.Fatalf("caches=%d fair=%v: checked %d names, table holds %d", caches, fair, seen, len(nt.all))
			}
		}
	}
}

// TestNewAllocatesOnlyTheSystem: New points at the shape's shared tables and
// formats nothing — the repository benchmark's setup_s is a median of New
// calls. Two allocations would be the System and one more; there is one.
func TestNewAllocatesOnlyTheSystem(t *testing.T) {
	for _, cfg := range []Config{{Caches: 5}, {Caches: 2, Variant: Large}, {Caches: 3, Fair: true}} {
		New(cfg) // the shape's first New builds its table
		var sys *System
		if n := testing.AllocsPerRun(100, func() { sys = New(cfg) }); n > 2 {
			t.Errorf("%+v: New allocates %.0f times, want <= 2", cfg, n)
		}
		if sys.names != namesFor(sys.cfg.Caches, cfg.Fair) {
			t.Errorf("%+v: New built a table of its own", cfg)
		}
	}
}

// TestAppendRulesPanicsOnUnknownMessageKind: the protocol sends eight
// message kinds, so enumeration never has to name another. A hand-built
// state holding one is a bug in the caller, and loud: AppendRules panics
// rather than name a delivery of it.
func TestAppendRulesPanicsOnUnknownMessageKind(t *testing.T) {
	sys := New(Config{Caches: 2})
	s := sys.Initial()[0].(*State)
	s.Net.SendInPlace(Msg{Kind: numMsgKinds, Src: 0, Dst: 2, Req: None})
	defer func() {
		if recover() == nil {
			t.Error("AppendRules named a delivery of an unknown kind instead of panicking")
		}
	}()
	sys.AppendRules(nil, ts.State(s))
}
