// Package spec loads versioned JSON model specifications — the
// verc3_model_v1 format — and compiles each into a ts.System of this
// package's own (system.go), so guarded-command systems and synthesis
// sketches are data instead of compiled-in Go packages. The zoo's peterson, peterson-sketch, token-ring
// and token-ring-sketch entries are compiled from the committed specs under
// examples/specs (embedded by that directory's package), and the tools load
// any other spec file with -spec.
//
// A spec declares typed state variables (bools, ranged ints, enums, pids,
// each optionally replicated per process), parameterized rulesets whose
// guards and actions are written in a small validated expression language
// (see expr.go), invariants, reach goals, liveness goals with weak-fairness
// declarations, and synthesis holes as `choose` statements with named
// candidate action sets. Loading validates everything with path-carrying
// errors (`rules[3].guard: unknown variable "pc2"`); compiled systems ride
// the full exploration substrate for free — successor recycling,
// rule-record enumeration, an allocation-free AppendKey over the
// typed variable layout, and scalarset symmetry when the spec declares it.
//
// The format is versioned by the required top-level "format" field; loaders
// reject unknown versions, and any schema change that is not
// backward-compatible must bump the constant.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// FormatV1 is the format tag every v1 spec must carry.
const FormatV1 = "verc3_model_v1"

// SpecError is a validation error annotated with the JSON path of the
// offending element, e.g. `rules[3].guard: unknown variable "pc2"`.
type SpecError struct {
	Path    string
	Message string
}

// Error implements error.
func (e *SpecError) Error() string { return e.Path + ": " + e.Message }

func specErrf(path, format string, args ...any) *SpecError {
	return &SpecError{Path: path, Message: fmt.Sprintf(format, args...)}
}

// Spec is the verc3_model_v1 JSON document.
type Spec struct {
	// Format must be FormatV1.
	Format string `json:"format"`
	// Name is the system name (what ts.System.Name reports).
	Name string `json:"name"`
	// Processes is the process count N replicated variables and rulesets
	// range over (0 when the model has no per-process structure).
	Processes int `json:"processes,omitempty"`
	// Symmetric declares the processes fully interchangeable: the checker
	// may canonicalize states by permuting per-process array cells and
	// renaming pid values. The spec author asserts the semantics are
	// permutation-invariant (exactly as a hand-written model asserts it by
	// implementing ts.Permutable).
	Symmetric bool `json:"symmetric,omitempty"`

	Vars       []VarSpec      `json:"vars"`
	Rules      []RuleSpec     `json:"rules"`
	Invariants []PropSpec     `json:"invariants,omitempty"`
	Goals      []PropSpec     `json:"goals,omitempty"`
	Liveness   []LivenessSpec `json:"liveness,omitempty"`
	Fairness   []FairnessSpec `json:"fairness,omitempty"`
	// Quiescent marks states where having no enabled rule is acceptable
	// rather than a deadlock (a bool expression; empty = never).
	Quiescent string `json:"quiescent,omitempty"`
}

// VarSpec declares one typed state variable.
type VarSpec struct {
	Name string `json:"name"`
	// Type is "bool", "int" (Min..Max inclusive), "enum" (Values), or "pid"
	// (a process number 0..N-1, plus none when Nullable).
	Type     string   `json:"type"`
	Min      *int     `json:"min,omitempty"`
	Max      *int     `json:"max,omitempty"`
	Values   []string `json:"values,omitempty"`
	Nullable bool     `json:"nullable,omitempty"`
	// Array replicates the variable per process (one cell per pid).
	Array bool `json:"array,omitempty"`
	// Init is a constant expression for the initial value (arrays: every
	// cell). Empty defaults to false / Min / the first enum value / none
	// (nullable pid) / 0 (non-nullable pid).
	Init string `json:"init,omitempty"`
}

// RuleSpec declares a guarded command. With PerProcess, the rule is a
// ruleset replicated for i in [0, N): Name must contain one %d (the
// instance names are formatted once at compile time), and the guard/action
// expressions may use i.
type RuleSpec struct {
	Name       string `json:"name"`
	PerProcess bool   `json:"per_process,omitempty"`
	// Guard is a bool expression; empty means always enabled.
	Guard  string `json:"guard,omitempty"`
	Action []Stmt `json:"action"`
}

// Stmt is one action statement: exactly one of Set (an assignment written
// as a plain JSON string "lhs = expr"), If, or Choose is set. The JSON
// encoding is polymorphic — assignments are bare strings, the other forms
// are single-keyed objects — so action lists read like code:
//
//	"action": [
//	  "flag[i] = true",
//	  {"if": "turn == i", "then": ["pc[i] = Crit"], "else": ["pc[i] = Wait"]},
//	  {"choose": "turn-write", "among": [
//	    {"name": "other", "do": ["turn = 1 - i"]},
//	    {"name": "me", "do": ["turn = i"]}]}
//	]
type Stmt struct {
	Set    string
	If     *IfStmt
	Choose *ChooseStmt
}

// IfStmt is a conditional statement.
type IfStmt struct {
	Cond string
	Then []Stmt
	Else []Stmt
}

// ChooseStmt is a synthesis hole: the engine (or a fixed assignment) picks
// one named candidate and its statements run. A spec containing any choose
// is a sketch — plain model checking refuses it, synthesis binds the holes
// through internal/core exactly as with hand-written sketches. The same
// hole name may appear at several sites (e.g. once per process); all sites
// must list identical candidate names and the chosen action is shared.
type ChooseStmt struct {
	Hole  string
	Among []Candidate
}

// Candidate is one named alternative of a choose hole.
type Candidate struct {
	Name string `json:"name"`
	Do   []Stmt `json:"do,omitempty"`
}

// stmtJSON is the object form of Stmt on the wire.
type stmtJSON struct {
	If     *string     `json:"if,omitempty"`
	Then   []Stmt      `json:"then,omitempty"`
	Else   []Stmt      `json:"else,omitempty"`
	Choose *string     `json:"choose,omitempty"`
	Among  []Candidate `json:"among,omitempty"`
}

// UnmarshalJSON implements json.Unmarshaler: a JSON string is an
// assignment, an object is an if or choose statement (unknown keys are
// rejected). Structural validation beyond that (exactly one form, non-empty
// fields) happens in Compile, where errors carry full paths.
func (s *Stmt) UnmarshalJSON(data []byte) error {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) > 0 && trimmed[0] == '"' {
		return json.Unmarshal(data, &s.Set)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var o stmtJSON
	if err := dec.Decode(&o); err != nil {
		return err
	}
	if o.If != nil && o.Choose != nil {
		return fmt.Errorf(`statement object has both "if" and "choose"`)
	}
	switch {
	case o.If != nil:
		s.If = &IfStmt{Cond: *o.If, Then: o.Then, Else: o.Else}
	case o.Choose != nil:
		s.Choose = &ChooseStmt{Hole: *o.Choose, Among: o.Among}
	default:
		return fmt.Errorf(`statement object needs an "if" or "choose" key`)
	}
	return nil
}

// MarshalJSON implements json.Marshaler, inverting UnmarshalJSON. It never
// HTML-escapes: spec expressions are full of && and <=, and committed spec
// files are meant to be read and edited by hand.
func (s Stmt) MarshalJSON() ([]byte, error) {
	switch {
	case s.If != nil:
		return marshalNoEscape(stmtJSON{If: &s.If.Cond, Then: s.If.Then, Else: s.If.Else})
	case s.Choose != nil:
		return marshalNoEscape(stmtJSON{Choose: &s.Choose.Hole, Among: s.Choose.Among})
	default:
		return marshalNoEscape(s.Set)
	}
}

// marshalNoEscape is json.Marshal without HTML escaping.
func marshalNoEscape(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// PropSpec declares an invariant or a reach goal. With PerProcess, the
// property is replicated for i in [0, N) and Name must contain one %d.
type PropSpec struct {
	Name       string `json:"name"`
	PerProcess bool   `json:"per_process,omitempty"`
	Expr       string `json:"expr"`
}

// LivenessSpec declares a liveness goal for the nested-DFS checker:
// "eventually_always" is FG p, "leads_to" is G(p → F q). With Fair, only
// weakly fair executions (see FairnessSpec) count as counterexamples.
type LivenessSpec struct {
	Name       string `json:"name"`
	PerProcess bool   `json:"per_process,omitempty"`
	Kind       string `json:"kind"`
	Fair       bool   `json:"fair,omitempty"`
	P          string `json:"p"`
	Q          string `json:"q,omitempty"`
}

// FairnessSpec declares a weak-fairness requirement: executions that keep
// Enabled continuously true while never firing a rule whose name starts
// with TakenPrefix are excluded from Fair liveness goals.
type FairnessSpec struct {
	Name        string `json:"name"`
	PerProcess  bool   `json:"per_process,omitempty"`
	Enabled     string `json:"enabled"`
	TakenPrefix string `json:"taken_prefix"`
}

// Parse decodes and compiles a verc3_model_v1 document. Every failure —
// malformed JSON, unknown fields, schema violations, expression errors —
// is reported as a *SpecError with the path of the offending element
// (malformed JSON gets path "$").
func Parse(data []byte) (*Model, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, &SpecError{Path: "$", Message: err.Error()}
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || len(bytes.TrimSpace(trailing)) > 0 {
		return nil, &SpecError{Path: "$", Message: "trailing data after the spec document"}
	}
	return Compile(&s)
}

// LoadFile reads and parses a spec file.
func LoadFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m.path = path
	return m, nil
}

// Marshal renders the model's spec in the canonical two-space-indented
// form. Canonical means idempotent: Parse(Marshal(m)) marshals to the same
// bytes, which the round-trip tests pin for every committed spec.
func (m *Model) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m.spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
