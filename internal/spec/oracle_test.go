package spec

// The reference semantics of the expression language: a tree-walking
// evaluator over the parsed AST, written independently of the closure
// compiler in expr.go. FuzzExprOracle holds every compiled valFn to it on
// random in-range states, and TestSpecPermutationInvariance checks the
// property symmetry reduction relies on — a symmetric spec's guards,
// actions and properties commute with renaming the processes. No second
// implementation of a spec model exists to compare with, so the oracle and
// the committed seed corpus under testdata/fuzz are the spec layer's
// reference semantics.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verc3/internal/symmetry"
	"verc3/internal/ts"
)

// oracleDir holds the committed specs the generator draws variables from.
const oracleDir = "../../examples/specs"

// oracleState is a state as the oracle sees it: every variable by name,
// one value per process for arrays and one value for scalars.
type oracleState map[string][]int64

// binding is one quantifier binder in scope.
type binding struct {
	name string
	val  int64
}

// oracle evaluates an AST node directly: identifiers resolve in the order
// the grammar documents (binders, i, N, variables, enum constants), && and
// || short-circuit, % truncates like Go, and booleans are 0/1.
type oracle struct {
	lay   *layout
	st    oracleState
	i     int64
	binds []binding
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (o *oracle) eval(n node) int64 {
	switch n := n.(type) {
	case *nLit:
		return n.val
	case *nIdent:
		for k := len(o.binds) - 1; k >= 0; k-- {
			if o.binds[k].name == n.name {
				return o.binds[k].val
			}
		}
		switch n.name {
		case "i":
			return o.i
		case "N":
			return int64(o.lay.n)
		}
		if vals, ok := o.st[n.name]; ok {
			return vals[0]
		}
		return int64(o.lay.enumVals[n.name].ordinal)
	case *nIndex:
		return o.st[n.name][o.eval(n.idx)]
	case *nUnary:
		if n.op == "!" {
			return b2i(o.eval(n.x) == 0)
		}
		return -o.eval(n.x)
	case *nBinary:
		switch n.op {
		case "&&":
			return b2i(o.eval(n.x) != 0 && o.eval(n.y) != 0)
		case "||":
			return b2i(o.eval(n.x) != 0 || o.eval(n.y) != 0)
		}
		a, b := o.eval(n.x), o.eval(n.y)
		switch n.op {
		case "==":
			return b2i(a == b)
		case "!=":
			return b2i(a != b)
		case "<":
			return b2i(a < b)
		case "<=":
			return b2i(a <= b)
		case ">":
			return b2i(a > b)
		case ">=":
			return b2i(a >= b)
		case "+":
			return a + b
		case "-":
			return a - b
		case "*":
			return a * b
		case "%":
			return a % b
		}
	case *nQuant:
		var hits int64
		for j := 0; j < o.lay.n; j++ {
			o.binds = append(o.binds, binding{n.v, int64(j)})
			hits += b2i(o.eval(n.body) != 0)
			o.binds = o.binds[:len(o.binds)-1]
		}
		switch n.fn {
		case "forall":
			return b2i(hits == int64(o.lay.n))
		case "exists":
			return b2i(hits > 0)
		}
		return hits
	}
	panic(fmt.Sprintf("oracle: unknown node %T", n))
}

// oracleModels parses every committed spec.
func oracleModels(tb testing.TB) []*Model {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join(oracleDir, "*.json"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no committed specs under %s (%v)", oracleDir, err)
	}
	var out []*Model
	for _, f := range files {
		m, err := LoadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// randomState draws every variable uniformly from its declared range and
// returns it both as the oracle's named view and as a compiled state.
func randomState(lay *layout, r *rand.Rand) (oracleState, *specState) {
	st := oracleState{}
	s := lay.newState()
	for vi := range lay.vars {
		v := &lay.vars[vi]
		width := 1
		if v.array {
			width = lay.n
		}
		vals := make([]int64, width)
		for c := range vals {
			vals[c] = int64(v.lo) + r.Int63n(int64(v.hi)-int64(v.lo)+1)
			s.vals[v.off+c] = int32(vals[c])
		}
		st[v.name] = vals
	}
	return st, s
}

// exprGen writes random expressions from the grammar in expr.go's header
// over one layout's variables, i, N, none and the enum constants. Its
// choices come from the fuzz input; an exhausted input picks the first
// production, which is always a terminal, so generation stops.
type exprGen struct {
	lay   *layout
	data  []byte
	bound []string
}

func (g *exprGen) pick(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

// varsOf lists the variable names of kind k (any enum when k is kEnum and
// enum is -1).
func (g *exprGen) varsOf(k kind, enum int) []*varInfo {
	var out []*varInfo
	for vi := range g.lay.vars {
		v := &g.lay.vars[vi]
		if v.k == k && (k != kEnum || enum < 0 || v.enum == enum) {
			out = append(out, v)
		}
	}
	return out
}

// read renders a read of v: indexed for arrays.
func (g *exprGen) read(v *varInfo, depth int) string {
	if v.array {
		return v.name + "[" + g.index(depth) + "]"
	}
	return v.name
}

// index is an array index: mostly the forms the compiler can bound, with
// an arbitrary number now and then to exercise the bounds check.
func (g *exprGen) index(depth int) string {
	switch g.pick(4) {
	case 0:
		return "0"
	case 1:
		if len(g.bound) > 0 {
			return g.bound[g.pick(len(g.bound))]
		}
		return "i"
	case 2:
		return "i"
	}
	return g.num(depth - 1)
}

// boolean writes an expression meant to have type bool.
func (g *exprGen) boolean(depth int) string {
	if depth <= 0 {
		return g.boolLeaf(depth)
	}
	switch g.pick(9) {
	case 0:
		return g.boolLeaf(depth)
	case 1:
		return "!" + g.boolean(depth-1)
	case 2:
		return g.boolean(depth-1) + " && " + g.boolean(depth-1)
	case 3:
		return g.boolean(depth-1) + " || " + g.boolean(depth-1)
	case 4:
		ops := []string{"==", "!=", "<", "<=", ">", ">="}
		return g.num(depth-1) + " " + ops[g.pick(len(ops))] + " " + g.num(depth-1)
	case 5:
		if len(g.lay.enums) > 0 {
			e := g.pick(len(g.lay.enums))
			return g.enum(e, depth-1) + []string{" == ", " != "}[g.pick(2)] + g.enum(e, depth-1)
		}
		return g.boolLeaf(depth)
	case 6:
		return g.quant([]string{"forall", "exists"}[g.pick(2)], depth)
	case 7:
		return g.boolean(depth-1) + " == " + g.boolean(depth-1)
	}
	return "(" + g.boolean(depth-1) + ")"
}

func (g *exprGen) boolLeaf(depth int) string {
	vs := g.varsOf(kBool, -1)
	switch n := g.pick(2 + len(vs)); n {
	case 0:
		return "true"
	case 1:
		return "false"
	default:
		return g.read(vs[n-2], depth)
	}
}

// num writes an expression meant to be numeric (int or pid).
func (g *exprGen) num(depth int) string {
	if depth <= 0 {
		return g.numLeaf(depth)
	}
	switch g.pick(7) {
	case 0:
		return g.numLeaf(depth)
	case 1:
		return "-" + g.num(depth-1)
	case 2:
		return g.num(depth-1) + []string{" + ", " - ", " * "}[g.pick(3)] + g.num(depth-1)
	case 3:
		return g.num(depth-1) + " % " + []string{"N", "1", "2", "3"}[g.pick(4)]
	case 4:
		return g.quant("count", depth)
	case 5:
		return "(" + g.num(depth-1) + ")"
	}
	return g.numLeaf(depth)
}

func (g *exprGen) numLeaf(depth int) string {
	leaves := []string{"0", "1", "2", "N", "i", "none"}
	leaves = append(leaves, g.bound...)
	for _, v := range g.varsOf(kPid, -1) {
		leaves = append(leaves, g.read(v, depth))
	}
	for _, v := range g.varsOf(kInt, -1) {
		leaves = append(leaves, g.read(v, depth))
	}
	return leaves[g.pick(len(leaves))]
}

// enum writes an expression of enum table e: a constant or a variable.
func (g *exprGen) enum(e, depth int) string {
	vs := g.varsOf(kEnum, e)
	consts := g.lay.enums[e]
	n := g.pick(len(consts) + len(vs))
	if n < len(consts) {
		return consts[n]
	}
	return g.read(vs[n-len(consts)], depth)
}

func (g *exprGen) quant(fn string, depth int) string {
	b := fmt.Sprintf("q%d", len(g.bound))
	g.bound = append(g.bound, b)
	body := g.boolean(depth - 1)
	g.bound = g.bound[:len(g.bound)-1]
	return fn + "(" + b + ", " + body + ")"
}

// checkOracle compiles src against m's layout with i in scope and, if the
// compiler accepts it, compares the compiled evaluator with the oracle on
// that many random states at every i. It reports whether src compiled.
func checkOracle(t *testing.T, m *Model, src string, r *rand.Rand, states int) bool {
	t.Helper()
	c := &compiler{lay: m.lay, allowI: true}
	ce, err := c.compileString("expr", src)
	if err != nil {
		return false
	}
	n, err := parseExpr(src)
	if err != nil {
		t.Fatalf("%s: compiled but does not parse: %v", src, err)
	}
	for k := 0; k < states; k++ {
		st, s := randomState(m.lay, r)
		for i := 0; i < m.lay.n; i++ {
			o := &oracle{lay: m.lay, st: st, i: int64(i)}
			want := o.eval(n)
			got := ce.fn(rtenv{s: s, i: int64(i)})
			if got != want {
				t.Fatalf("%s: %q at i=%d on %v: compiled %d, oracle %d", m.Name(), src, i, s, got, want)
			}
			if want < ce.typ.lo || want > ce.typ.hi {
				t.Fatalf("%s: %q at i=%d on %v = %d, outside its static bounds [%d,%d]",
					m.Name(), src, i, s, want, ce.typ.lo, ce.typ.hi)
			}
			if ce.isConst && ce.cval != want {
				t.Fatalf("%s: %q folded to %d, evaluates to %d", m.Name(), src, ce.cval, want)
			}
		}
	}
	return true
}

// FuzzExprOracle generates expressions over a committed spec's variables
// (the first input byte picks the spec, the rest drive the grammar), keeps
// those the compiler accepts, and compares each compiled evaluator with the
// oracle on random in-range states at every process index. The committed
// corpus under testdata/fuzz/FuzzExprOracle covers every node kind.
func FuzzExprOracle(f *testing.F) {
	models := oracleModels(f)
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := models[int(data[0])%len(models)]
		if m.lay.n == 0 {
			return
		}
		h := fnv.New64a()
		h.Write(data)
		r := rand.New(rand.NewSource(int64(h.Sum64())))
		g := &exprGen{lay: m.lay, data: data[1:]}
		src := g.boolean(4)
		if !checkOracle(t, m, src, r, 16) {
			return
		}
		// Also the numeric and enum sub-languages on their own.
		checkOracle(t, m, g.num(3), r, 8)
		if len(m.lay.enums) > 0 {
			checkOracle(t, m, g.enum(g.pick(len(m.lay.enums)), 2), r, 8)
		}
	})
}

// TestExprOracleCoverage checks that the committed seed corpus reaches every
// AST node kind and operator through accepted expressions, so the CI run
// of FuzzExprOracle's seeds is a meaningful differential test by itself.
func TestExprOracleCoverage(t *testing.T) {
	models := oracleModels(t)
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzExprOracle", "*"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var visit func(n node)
	visit = func(n node) {
		switch n := n.(type) {
		case *nLit:
			seen[fmt.Sprintf("lit:%v", n.k)] = true
		case *nIdent:
			seen["ident"] = true
		case *nIndex:
			seen["index"] = true
			visit(n.idx)
		case *nUnary:
			seen["unary"+n.op] = true
			visit(n.x)
		case *nBinary:
			seen["binary"+n.op] = true
			visit(n.x)
			visit(n.y)
		case *nQuant:
			seen[n.fn] = true
			visit(n.body)
		}
	}
	for _, file := range seeds {
		data := readSeed(t, file)
		if len(data) == 0 {
			continue
		}
		m := models[int(data[0])%len(models)]
		g := &exprGen{lay: m.lay, data: data[1:]}
		src := g.boolean(4)
		c := &compiler{lay: m.lay, allowI: true}
		if _, err := c.compileString("expr", src); err != nil {
			continue
		}
		n, _ := parseExpr(src)
		visit(n)
	}
	for _, want := range []string{"lit:int", "lit:bool", "lit:pid", "ident", "index", "unary!", "unary-",
		"binary&&", "binary||", "binary==", "binary!=", "binary<", "binary<=", "binary>", "binary>=",
		"binary+", "binary-", "binary*", "binary%", "forall", "exists", "count"} {
		if !seen[want] {
			t.Errorf("no accepted seed expression contains %s", want)
		}
	}
}

// readSeed decodes a one-argument []byte corpus file ("go test fuzz v1").
func readSeed(t *testing.T, file string) []byte {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a corpus file", file)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	var s string
	if _, err := fmt.Sscanf(lit, "%q", &s); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return []byte(s)
}

// holeChooser resolves each hole to a fixed candidate index.
type holeChooser map[string]int

func (c holeChooser) Choose(hole string, _ []string) (int, error) { return c[hole], nil }

// assignments lists every assignment of m's holes (one empty assignment
// for a complete model).
func assignments(m *Model) []holeChooser {
	out := []holeChooser{{}}
	for _, h := range m.Holes() {
		var next []holeChooser
		for _, a := range out {
			for c := range m.holes[h] {
				b := holeChooser{h: c}
				for k, v := range a {
					b[k] = v
				}
				next = append(next, b)
			}
		}
		out = next
	}
	return out
}

// reachable lists the states of m reachable under any hole assignment.
func reachable(t *testing.T, m *Model, sys ts.System) []ts.State {
	t.Helper()
	envs := assignments(m)
	seen := map[string]bool{}
	var out []ts.State
	frontier := sys.Initial()
	for len(frontier) > 0 {
		var next []ts.State
		for _, s := range frontier {
			if seen[s.Key()] {
				continue
			}
			seen[s.Key()] = true
			out = append(out, s)
			for _, r := range sys.AppendRules(nil, s) {
				for _, c := range envs {
					succ, err := sys.FireRule(s, r, ts.NewEnv(c))
					if err != nil {
						t.Fatal(err)
					}
					next = append(next, succ)
				}
			}
		}
		frontier = next
	}
	return out
}

// TestSpecPermutationInvariance is the metamorphic check behind symmetry
// reduction of a spec model: for every symmetric committed spec, every
// state reachable under any hole assignment and every permutation π of the
// processes, each guard, invariant, goal, liveness and fairness predicate
// gives the same answer on π(s) at the renamed π(i) as on s at i, and
// firing a rule instance commutes with π.
func TestSpecPermutationInvariance(t *testing.T) {
	var checked int
	for _, m := range oracleModels(t) {
		if !m.lay.symmetric {
			continue
		}
		checked++
		t.Run(m.Name(), func(t *testing.T) {
			sys := m.System()
			states := reachable(t, m, sys)
			perms := symmetry.Permutations(m.lay.n)
			type pred struct {
				name       string
				perProcess bool
				fn         valFn
			}
			var preds []pred
			for _, r := range m.rules {
				if r.guard != nil {
					preds = append(preds, pred{"guard " + r.name, r.perProcess, r.guard})
				}
			}
			for _, p := range append(append([]cprop(nil), m.invs...), m.goals...) {
				preds = append(preds, pred{p.name, p.perProcess, p.fn})
			}
			for _, l := range m.live {
				preds = append(preds, pred{l.name + ".p", l.perProcess, l.p})
				if l.q != nil {
					preds = append(preds, pred{l.name + ".q", l.perProcess, l.q})
				}
			}
			for _, f := range m.fair {
				preds = append(preds, pred{f.name, f.perProcess, f.enabled})
			}
			envs := assignments(m)
			for _, s := range states {
				for _, perm := range perms {
					ps := symmetry.Permuted(s.(ts.Permutable), perm)
					for _, p := range preds {
						is := []int{-1}
						if p.perProcess {
							is = is[:0]
							for i := 0; i < m.lay.n; i++ {
								is = append(is, i)
							}
						}
						for _, i := range is {
							pi := i
							if i >= 0 {
								pi = perm[i]
							}
							a := p.fn(rtenv{s: s.(specCore).core(), i: int64(i)})
							b := p.fn(rtenv{s: ps.(specCore).core(), i: int64(pi)})
							if a != b {
								t.Fatalf("%s at i=%d on %v is %d, at i=%d on %v (perm %v) is %d",
									p.name, i, s, a, pi, ps, perm, b)
							}
						}
					}
					permuted := sys.AppendRules(nil, ps)
					for _, r := range sys.AppendRules(nil, s) {
						pr, ok := findRule(permuted, r.ID, int32(permutedInstance(m, r, perm)))
						if !ok {
							t.Fatalf("%s enabled on %v but its image is not enabled on %v (perm %v)",
								sys.RuleName(r), s, ps, perm)
						}
						for _, c := range envs {
							succ, err := sys.FireRule(s, r, ts.NewEnv(c))
							if err != nil {
								t.Fatal(err)
							}
							psucc, err := sys.FireRule(ps, pr, ts.NewEnv(c))
							if err != nil {
								t.Fatal(err)
							}
							if got, want := psucc.Key(), symmetry.Permuted(succ.(ts.Permutable), perm).Key(); got != want {
								t.Fatalf("%s on %v then perm %v gives %s; firing its image on %v gives %s",
									sys.RuleName(r), s, perm, want, ps, got)
							}
						}
					}
				}
			}
			t.Logf("%d states × %d permutations", len(states), len(perms))
		})
	}
	if checked < 2 {
		t.Fatalf("checked %d symmetric specs, want at least 2 (mutex.json, mutex-sketch.json)", checked)
	}
}

// permutedInstance is the ruleset instance a rule record names after the
// processes are renamed by perm: per-process instances follow perm, a
// plain rule's single instance stays.
func permutedInstance(m *Model, r ts.Rule, perm []int) int {
	if m.rules[r.ID].perProcess {
		return perm[r.Msg]
	}
	return int(r.Msg)
}

func findRule(rules []ts.Rule, id uint16, msg int32) (ts.Rule, bool) {
	for _, r := range rules {
		if r.ID == id && r.Msg == msg {
			return r, true
		}
	}
	return ts.Rule{}, false
}
