package spec

import (
	"fmt"
	"sort"
	"strings"

	"verc3/internal/ts"
)

// Model is a compiled spec: the validated layout plus closures for every
// rule and property, ready to instantiate as ts.Systems. A Model is
// immutable and safe for concurrent use; each System() call builds a fresh
// system with its own successor pool.
type Model struct {
	spec *Spec
	path string // source file, when loaded from one ("" otherwise)
	lay  *layout

	rules  []crule
	invs   []cprop
	goals  []cprop
	live   []clive
	fair   []cfair
	quiet  valFn
	sketch bool
	holes  map[string][]string // hole name → candidate names
}

type stmtFn func(e rtenv, env *ts.Env) error

type crule struct {
	name       string
	perProcess bool
	guard      valFn // nil = always enabled
	action     []stmtFn
}

type cprop struct {
	name       string
	perProcess bool
	fn         valFn
}

type clive struct {
	name       string
	perProcess bool
	kind       ts.LivenessKind
	fair       bool
	p, q       valFn
}

type cfair struct {
	name       string
	perProcess bool
	prefix     string
	enabled    valFn
}

// Name returns the system name.
func (m *Model) Name() string { return m.spec.Name }

// Sketch reports whether the model contains synthesis holes (any choose
// statement) — sketches can only be explored under a synthesis chooser.
func (m *Model) Sketch() bool { return m.sketch }

// Processes returns the declared process count.
func (m *Model) Processes() int { return m.lay.n }

// Path returns the source file the model was loaded from ("" when parsed
// from bytes).
func (m *Model) Path() string { return m.path }

// Holes lists the hole names of a sketch in sorted order.
func (m *Model) Holes() []string {
	out := make([]string, 0, len(m.holes))
	for h := range m.holes {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Spec returns the underlying document (callers must not mutate it).
func (m *Model) Spec() *Spec { return m.spec }

var reserved = map[string]bool{
	"i": true, "N": true, "none": true, "true": true, "false": true,
	"forall": true, "exists": true, "count": true,
}

func isIdentName(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return false
		}
	}
	return true
}

// checkNamePattern validates a display-name pattern: per-process names are
// fmt patterns with exactly one %d, plain names carry no verbs at all.
func checkNamePattern(path, name string, perProcess bool) error {
	if name == "" {
		return specErrf(path, "missing name")
	}
	verbs := strings.Count(name, "%")
	if perProcess {
		if verbs != 1 || !strings.Contains(name, "%d") {
			return specErrf(path, "per-process name %q must contain exactly one %%d", name)
		}
	} else if verbs != 0 {
		return specErrf(path, "name %q must not contain %% (set per_process to parameterize)", name)
	}
	return nil
}

// maxProcesses bounds the declared process count. Explicit-state
// exploration is hopeless orders of magnitude below this; the bound exists
// so a malformed or adversarial spec cannot make the compiler itself
// allocate per-process structures without limit.
const maxProcesses = 1024

// Compile validates a decoded Spec and compiles it to a Model. All errors
// are *SpecError values carrying the path of the offending element.
func Compile(s *Spec) (*Model, error) {
	if s.Format != FormatV1 {
		return nil, specErrf("format", "unsupported format %q (this loader reads %q)", s.Format, FormatV1)
	}
	if s.Name == "" {
		return nil, specErrf("name", "missing system name")
	}
	if s.Processes < 0 {
		return nil, specErrf("processes", "negative process count %d", s.Processes)
	}
	if s.Processes > maxProcesses {
		return nil, specErrf("processes", "process count %d exceeds the format limit %d", s.Processes, maxProcesses)
	}
	if s.Symmetric && s.Processes < 1 {
		return nil, specErrf("symmetric", "a symmetric model needs processes >= 1")
	}

	lay, err := buildLayout(s)
	if err != nil {
		return nil, err
	}
	m := &Model{spec: s, lay: lay, holes: map[string][]string{}}
	c := &compiler{lay: lay}

	if err := compileInits(s, lay, c); err != nil {
		return nil, err
	}

	if len(s.Rules) == 0 {
		return nil, specErrf("rules", "empty (a system needs at least one rule)")
	}
	for ri := range s.Rules {
		r := &s.Rules[ri]
		path := fmt.Sprintf("rules[%d]", ri)
		if err := checkNamePattern(path+".name", r.Name, r.PerProcess); err != nil {
			return nil, err
		}
		if r.PerProcess && lay.n < 1 {
			return nil, specErrf(path, "per-process rule needs processes >= 1")
		}
		c.allowI = r.PerProcess
		cr := crule{name: r.Name, perProcess: r.PerProcess}
		if r.Guard != "" {
			if cr.guard, err = c.compileBool(path+".guard", r.Guard); err != nil {
				return nil, err
			}
		}
		if len(r.Action) == 0 {
			return nil, specErrf(path+".action", "empty (a rule must change something)")
		}
		if cr.action, err = m.compileStmts(c, path+".action", r.Action); err != nil {
			return nil, err
		}
		m.rules = append(m.rules, cr)
	}

	compileProps := func(field string, props []PropSpec) ([]cprop, error) {
		var out []cprop
		for pi := range props {
			p := &props[pi]
			path := fmt.Sprintf("%s[%d]", field, pi)
			if err := checkNamePattern(path+".name", p.Name, p.PerProcess); err != nil {
				return nil, err
			}
			c.allowI = p.PerProcess
			fn, err := c.compileBool(path+".expr", p.Expr)
			if err != nil {
				return nil, err
			}
			out = append(out, cprop{name: p.Name, perProcess: p.PerProcess, fn: fn})
		}
		return out, nil
	}
	if m.invs, err = compileProps("invariants", s.Invariants); err != nil {
		return nil, err
	}
	if m.goals, err = compileProps("goals", s.Goals); err != nil {
		return nil, err
	}

	for li := range s.Liveness {
		l := &s.Liveness[li]
		path := fmt.Sprintf("liveness[%d]", li)
		if err := checkNamePattern(path+".name", l.Name, l.PerProcess); err != nil {
			return nil, err
		}
		cl := clive{name: l.Name, perProcess: l.PerProcess, fair: l.Fair}
		switch l.Kind {
		case "eventually_always":
			cl.kind = ts.EventuallyAlways
			if l.Q != "" {
				return nil, specErrf(path+".q", `only "leads_to" goals take a q predicate`)
			}
		case "leads_to":
			cl.kind = ts.LeadsTo
			if l.Q == "" {
				return nil, specErrf(path+".q", `"leads_to" goals need a q predicate`)
			}
		default:
			return nil, specErrf(path+".kind", `unknown kind %q (want "eventually_always" or "leads_to")`, l.Kind)
		}
		c.allowI = l.PerProcess
		if cl.p, err = c.compileBool(path+".p", l.P); err != nil {
			return nil, err
		}
		if l.Q != "" {
			if cl.q, err = c.compileBool(path+".q", l.Q); err != nil {
				return nil, err
			}
		}
		m.live = append(m.live, cl)
	}

	for fi := range s.Fairness {
		f := &s.Fairness[fi]
		path := fmt.Sprintf("fairness[%d]", fi)
		if err := checkNamePattern(path+".name", f.Name, f.PerProcess); err != nil {
			return nil, err
		}
		if f.TakenPrefix == "" {
			return nil, specErrf(path+".taken_prefix", "missing rule-name prefix")
		}
		if verbs := strings.Count(f.TakenPrefix, "%"); verbs > 1 ||
			(verbs == 1 && (!f.PerProcess || !strings.Contains(f.TakenPrefix, "%d"))) {
			return nil, specErrf(path+".taken_prefix", "prefix %q may contain one %%d, and only with per_process", f.TakenPrefix)
		}
		c.allowI = f.PerProcess
		enabled, err := c.compileBool(path+".enabled", f.Enabled)
		if err != nil {
			return nil, err
		}
		m.fair = append(m.fair, cfair{name: f.Name, perProcess: f.PerProcess, prefix: f.TakenPrefix, enabled: enabled})
	}

	if s.Quiescent != "" {
		c.allowI = false
		if m.quiet, err = c.compileBool("quiescent", s.Quiescent); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// buildLayout validates the variable declarations and assigns the slot
// layout and key-encoding tables.
func buildLayout(s *Spec) (*layout, error) {
	if len(s.Vars) == 0 {
		return nil, specErrf("vars", "empty (a system needs state)")
	}
	lay := &layout{name: s.Name, n: s.Processes, symmetric: s.Symmetric, enumVals: map[string]enumVal{}}
	seen := map[string]string{} // identifier → first declaration path
	claim := func(path, name string) error {
		if !isIdentName(name) {
			return specErrf(path, "bad identifier %q", name)
		}
		if reserved[name] {
			return specErrf(path, "%q is a reserved word", name)
		}
		if prev, dup := seen[name]; dup {
			return specErrf(path, "%q already declared at %s", name, prev)
		}
		seen[name] = path
		return nil
	}
	for vi := range s.Vars {
		v := &s.Vars[vi]
		path := fmt.Sprintf("vars[%d]", vi)
		if err := claim(path+".name", v.Name); err != nil {
			return nil, err
		}
		if v.Array && lay.n < 1 {
			return nil, specErrf(path+".array", "a per-process array needs processes >= 1")
		}
		info := varInfo{name: v.Name, array: v.Array}
		checkUnused := func() error {
			switch {
			case v.Min != nil || v.Max != nil:
				return specErrf(path, `min/max are only for type "int"`)
			case len(v.Values) > 0:
				return specErrf(path+".values", `values are only for type "enum"`)
			case v.Nullable:
				return specErrf(path+".nullable", `nullable is only for type "pid"`)
			}
			return nil
		}
		switch v.Type {
		case "bool":
			if err := checkUnused(); err != nil {
				return nil, err
			}
			info.k, info.lo, info.hi = kBool, 0, 1
		case "int":
			if len(v.Values) > 0 || v.Nullable {
				return nil, specErrf(path, `values/nullable are not for type "int"`)
			}
			if v.Min == nil || v.Max == nil {
				return nil, specErrf(path, `type "int" needs min and max`)
			}
			if *v.Min > *v.Max {
				return nil, specErrf(path, "min %d > max %d", *v.Min, *v.Max)
			}
			if *v.Min < -1<<30 || *v.Max > 1<<30 {
				return nil, specErrf(path, "range [%d,%d] too large", *v.Min, *v.Max)
			}
			info.k, info.lo, info.hi = kInt, int32(*v.Min), int32(*v.Max)
		case "enum":
			if v.Min != nil || v.Max != nil || v.Nullable {
				return nil, specErrf(path, `min/max/nullable are not for type "enum"`)
			}
			if len(v.Values) == 0 {
				return nil, specErrf(path+".values", `type "enum" needs values`)
			}
			info.k, info.enum = kEnum, len(lay.enums)
			for oi, val := range v.Values {
				if err := claim(fmt.Sprintf("%s.values[%d]", path, oi), val); err != nil {
					return nil, err
				}
				lay.enumVals[val] = enumVal{enum: info.enum, ordinal: oi}
			}
			lay.enums = append(lay.enums, v.Values)
			info.lo, info.hi = 0, int32(len(v.Values)-1)
		case "pid":
			if v.Min != nil || v.Max != nil || len(v.Values) > 0 {
				return nil, specErrf(path, `min/max/values are not for type "pid"`)
			}
			if lay.n < 1 {
				return nil, specErrf(path, `type "pid" needs processes >= 1`)
			}
			info.k, info.hi = kPid, int32(lay.n-1)
			if v.Nullable {
				info.lo = pidNone
			}
		default:
			return nil, specErrf(path+".type", `unknown type %q (want "bool", "int", "enum" or "pid")`, v.Type)
		}
		lay.vars = append(lay.vars, info)
	}
	lay.finalize()
	return lay, nil
}

// compileInits evaluates each variable's initial-value expression (a
// constant) and records it in the layout.
func compileInits(s *Spec, lay *layout, c *compiler) error {
	c.allowI = false
	for vi := range s.Vars {
		v := &s.Vars[vi]
		info := &lay.vars[vi]
		path := fmt.Sprintf("vars[%d].init", vi)
		if v.Init == "" {
			switch info.k {
			case kInt:
				info.init = info.lo
			case kPid:
				if v.Nullable {
					info.init = pidNone
				}
			}
			continue
		}
		ce, err := c.compileString(path, v.Init)
		if err != nil {
			return err
		}
		if !ce.isConst {
			return specErrf(path, "initial value %q is not a constant expression", v.Init)
		}
		switch info.k {
		case kBool:
			if ce.typ.k != kBool {
				return specErrf(path, "initial value has type %s, want bool", ce.typ.describe(lay))
			}
		case kEnum:
			if ce.typ.k != kEnum || ce.typ.enum != info.enum {
				return specErrf(path, "initial value has type %s, want enum(%s)", ce.typ.describe(lay), strings.Join(lay.enums[info.enum], "|"))
			}
		default:
			if !ce.typ.numeric() {
				return specErrf(path, "initial value has type %s, want %s", ce.typ.describe(lay), info.k)
			}
			if ce.cval < int64(info.lo) || ce.cval > int64(info.hi) {
				return specErrf(path, "initial value %d out of range [%d,%d]", ce.cval, info.lo, info.hi)
			}
		}
		info.init = int32(ce.cval)
	}
	return nil
}

// compileStmts compiles an action statement list, registering choose holes.
func (m *Model) compileStmts(c *compiler, path string, stmts []Stmt) ([]stmtFn, error) {
	fns := make([]stmtFn, 0, len(stmts))
	for si := range stmts {
		fn, err := m.compileStmt(c, fmt.Sprintf("%s[%d]", path, si), &stmts[si])
		if err != nil {
			return nil, err
		}
		fns = append(fns, fn)
	}
	return fns, nil
}

func runStmts(fns []stmtFn, e rtenv, env *ts.Env) error {
	for _, f := range fns {
		if err := f(e, env); err != nil {
			return err
		}
	}
	return nil
}

func (m *Model) compileStmt(c *compiler, path string, s *Stmt) (stmtFn, error) {
	forms := 0
	if s.Set != "" {
		forms++
	}
	if s.If != nil {
		forms++
	}
	if s.Choose != nil {
		forms++
	}
	if forms != 1 {
		return nil, specErrf(path, "a statement is exactly one of an assignment string, an if, or a choose")
	}
	switch {
	case s.Set != "":
		a, err := c.compileAssign(path, s.Set)
		if err != nil {
			return nil, err
		}
		return func(e rtenv, _ *ts.Env) error {
			v := a.val(e)
			if a.check != nil {
				if err := a.check(v); err != nil {
					return err
				}
			}
			e.s.vals[a.slot(e)] = int32(v)
			return nil
		}, nil

	case s.If != nil:
		cond, err := c.compileBool(path+".if", s.If.Cond)
		if err != nil {
			return nil, err
		}
		then, err := m.compileStmts(c, path+".then", s.If.Then)
		if err != nil {
			return nil, err
		}
		els, err := m.compileStmts(c, path+".else", s.If.Else)
		if err != nil {
			return nil, err
		}
		return func(e rtenv, env *ts.Env) error {
			if cond(e) != 0 {
				return runStmts(then, e, env)
			}
			return runStmts(els, e, env)
		}, nil

	default:
		ch := s.Choose
		if ch.Hole == "" {
			return nil, specErrf(path+".choose", "missing hole name")
		}
		if len(ch.Among) < 2 {
			return nil, specErrf(path+".among", "a hole needs at least two candidates")
		}
		names := make([]string, len(ch.Among))
		bodies := make([][]stmtFn, len(ch.Among))
		seen := map[string]bool{}
		for ci := range ch.Among {
			cand := &ch.Among[ci]
			cpath := fmt.Sprintf("%s.among[%d]", path, ci)
			if cand.Name == "" {
				return nil, specErrf(cpath+".name", "missing candidate name")
			}
			if seen[cand.Name] {
				return nil, specErrf(cpath+".name", "duplicate candidate %q", cand.Name)
			}
			seen[cand.Name] = true
			names[ci] = cand.Name
			body, err := m.compileStmts(c, cpath+".do", cand.Do)
			if err != nil {
				return nil, err
			}
			bodies[ci] = body
		}
		if prev, ok := m.holes[ch.Hole]; ok {
			if len(prev) != len(names) || !equalStrings(prev, names) {
				return nil, specErrf(path+".among", "hole %q previously declared candidates {%s}, here {%s} — all sites of a hole must agree",
					ch.Hole, strings.Join(prev, ", "), strings.Join(names, ", "))
			}
		} else {
			m.holes[ch.Hole] = names
		}
		m.sketch = true
		hole := ch.Hole
		return func(e rtenv, env *ts.Env) error {
			idx, err := env.Choose(hole, names)
			if err != nil {
				return err
			}
			return runStmts(bodies[idx], e, env)
		}, nil
	}
}

func equalStrings(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
