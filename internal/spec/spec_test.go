package spec_test

// Unit tests for the spec loader itself: canonical-form round-trips over
// every committed spec, path-carrying validation errors, and the
// allocation-free AppendKey contract the compiled systems promise the
// exploration substrate.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"verc3/internal/spec"
	"verc3/internal/ts"
)

// TestSpecRoundTrip pins the canonical form of every committed spec:
// the bytes on disk parse, re-marshal to exactly the same bytes
// (committed specs are stored canonically), and the marshal→load→
// re-marshal cycle is idempotent.
func TestSpecRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(specDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("found %d committed specs, want at least 3 (mutex, mutex-sketch, tokenring)", len(files))
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			disk, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			m, err := spec.Parse(disk)
			if err != nil {
				t.Fatal(err)
			}
			out, err := m.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, disk) {
				t.Errorf("committed file is not in canonical form: re-marshal differs\n(canonicalize by writing Marshal output back to %s)", f)
			}
			m2, err := spec.Parse(out)
			if err != nil {
				t.Fatalf("re-parsing marshaled spec: %v", err)
			}
			out2, err := m2.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out2, out) {
				t.Error("marshal→load→re-marshal is not idempotent")
			}
		})
	}
}

// minimal returns a tiny valid spec document; tests mutate copies of the
// pattern to probe one validation rule at a time.
const minimal = `{
  "format": "verc3_model_v1",
  "name": "m",
  "vars": [{"name": "x", "type": "bool"}],
  "rules": [{"name": "flip", "guard": "!x", "action": ["x = true"]}]
}`

// TestSpecErrorPaths pins the loader's error contract: every rejection is
// a *spec.SpecError whose Path names the offending element, down to the
// ISSUE's canonical example `rules[3].guard: unknown variable "pc2"`.
func TestSpecErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		path string // expected SpecError.Path
		msg  string // expected full Error() when non-empty
	}{
		{name: "malformed JSON", doc: `{"format":`, path: "$"},
		{name: "trailing data", doc: minimal + `{}`, path: "$",
			msg: "$: trailing data after the spec document"},
		{name: "unknown top-level field", doc: `{"format": "verc3_model_v1", "nam": "typo"}`, path: "$"},
		{name: "bad format", doc: `{"format": "verc3_model_v9", "name": "m", "vars": [], "rules": []}`,
			path: "format",
			msg:  `format: unsupported format "verc3_model_v9" (this loader reads "verc3_model_v1")`},
		{name: "missing name", doc: `{"format": "verc3_model_v1", "vars": [], "rules": []}`, path: "name"},
		{name: "negative processes",
			doc:  `{"format": "verc3_model_v1", "name": "m", "processes": -1, "vars": [], "rules": []}`,
			path: "processes"},
		{name: "huge processes",
			doc:  `{"format": "verc3_model_v1", "name": "m", "processes": 1000000, "vars": [], "rules": []}`,
			path: "processes"},
		{name: "no rules",
			doc:  `{"format": "verc3_model_v1", "name": "m", "vars": [{"name": "x", "type": "bool"}], "rules": []}`,
			path: "rules"},
		{name: "unknown variable in guard",
			doc: `{
				"format": "verc3_model_v1", "name": "m",
				"vars": [{"name": "pc", "type": "bool"}],
				"rules": [
					{"name": "a", "action": ["pc = true"]},
					{"name": "b", "action": ["pc = true"]},
					{"name": "c", "action": ["pc = true"]},
					{"name": "d", "guard": "pc2", "action": ["pc = true"]}
				]
			}`,
			path: "rules[3].guard",
			msg:  `rules[3].guard: unknown variable "pc2"`},
		{name: "unknown variable in action",
			doc: `{
				"format": "verc3_model_v1", "name": "m",
				"vars": [{"name": "x", "type": "bool"}],
				"rules": [{"name": "a", "action": ["y = true"]}]
			}`,
			path: "rules[0].action[0]"},
		{name: "i outside per-process rule",
			doc: `{
				"format": "verc3_model_v1", "name": "m", "processes": 2,
				"vars": [{"name": "x", "type": "bool", "array": true}],
				"rules": [{"name": "a", "action": ["x[i] = true"]}]
			}`,
			path: "rules[0].action[0]"},
		{name: "duplicate variable",
			doc: `{
				"format": "verc3_model_v1", "name": "m",
				"vars": [{"name": "x", "type": "bool"}, {"name": "x", "type": "bool"}],
				"rules": [{"name": "a", "action": ["x = true"]}]
			}`,
			path: "vars[1].name"},
		{name: "one-candidate hole",
			doc: `{
				"format": "verc3_model_v1", "name": "m",
				"vars": [{"name": "x", "type": "bool"}],
				"rules": [{"name": "a", "action": [
					{"choose": "h", "among": [{"name": "only", "do": ["x = true"]}]}
				]}]
			}`,
			path: "rules[0].action[0].among",
			msg:  "rules[0].action[0].among: a hole needs at least two candidates"},
		{name: "hole redeclared with other candidates",
			doc: `{
				"format": "verc3_model_v1", "name": "m",
				"vars": [{"name": "x", "type": "bool"}],
				"rules": [
					{"name": "a", "action": [{"choose": "h", "among": [{"name": "on", "do": ["x = true"]}, {"name": "off", "do": ["x = false"]}]}]},
					{"name": "b", "action": [{"choose": "h", "among": [{"name": "on", "do": ["x = true"]}, {"name": "keep", "do": ["x = x"]}]}]}
				]
			}`,
			path: "rules[1].action[0].among",
			msg:  "rules[1].action[0].among: hole \"h\" previously declared candidates {on, off}, here {on, keep} — all sites of a hole must agree"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := spec.Parse([]byte(tc.doc))
			if err == nil {
				t.Fatal("Parse accepted an invalid spec")
			}
			var se *spec.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *spec.SpecError: %v", err, err)
			}
			if se.Path != tc.path {
				t.Errorf("error path %q, want %q (error: %v)", se.Path, tc.path, err)
			}
			if tc.msg != "" && se.Error() != tc.msg {
				t.Errorf("error %q, want %q", se.Error(), tc.msg)
			}
		})
	}
}

// TestSpecAppendKey checks the compiled state's keying contract: AppendKey
// allocates nothing beyond the caller's buffer, agrees injectively with
// the human-readable Key, and round-trips through Clone/CopyFrom.
func TestSpecAppendKey(t *testing.T) {
	m := loadSpec(t, "mutex.json")
	sys := m.System()
	st := sys.Initial()[0]
	ka, ok := st.(ts.KeyAppender)
	if !ok {
		t.Fatal("spec state does not implement ts.KeyAppender")
	}

	buf := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(100, func() {
		buf = ka.AppendKey(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendKey allocates %.1f times per call, want 0", allocs)
	}

	// Walk a few transition layers and check Key/AppendKey injectivity:
	// distinct Keys must yield distinct binary keys and vice versa.
	byKey := map[string]string{}
	seen := map[string]bool{}
	frontier := []ts.State{st}
	for depth := 0; depth < 4 && len(frontier) > 0; depth++ {
		var next []ts.State
		for _, s := range frontier {
			k := s.Key()
			bk := string(s.(ts.KeyAppender).AppendKey(nil))
			if prev, dup := byKey[k]; dup {
				if prev != bk {
					t.Fatalf("state %q has two binary keys", k)
				}
				continue
			}
			for otherK, otherB := range byKey {
				if otherB == bk {
					t.Fatalf("states %q and %q share a binary key", k, otherK)
				}
			}
			byKey[k] = bk
			if seen[k] {
				continue
			}
			seen[k] = true
			for _, r := range sys.AppendRules(nil, s) {
				succ, err := sys.FireRule(s, r, ts.NewEnv(nil))
				if err != nil {
					t.Fatal(err)
				}
				next = append(next, succ)
			}
		}
		frontier = next
	}
	if len(byKey) < 4 {
		t.Fatalf("explored only %d distinct states; harness is broken", len(byKey))
	}
}

// TestSpecStateString spot-checks the named rendering counterexample
// traces use: variables appear by name with enum/pid values symbolic.
func TestSpecStateString(t *testing.T) {
	m := loadSpec(t, "mutex.json")
	st := m.System().Initial()[0]
	s := fmt.Sprintf("%v", st)
	for _, want := range []string{"pc", "Idle", "turn", "none"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("initial state rendering %q misses %q", s, want)
		}
	}
}
