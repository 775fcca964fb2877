package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// The expression language of verc3_model_v1 guards, actions and properties.
//
// Grammar (precedence low → high):
//
//	expr  := or
//	or    := and ('||' and)*
//	and   := cmp ('&&' cmp)*
//	cmp   := sum (('=='|'!='|'<'|'<='|'>'|'>=') sum)?
//	sum   := term (('+'|'-') term)*
//	term  := unary (('*'|'%') unary)*
//	unary := '!' unary | '-' unary | post
//	post  := prim ('[' expr ']')?
//	prim  := INT | 'true' | 'false' | 'none' | IDENT
//	       | ('forall'|'exists'|'count') '(' IDENT ',' expr ')'
//	       | '(' expr ')'
//
// Identifiers resolve, in order, to quantifier-bound variables, the ruleset
// parameter `i` (per-process contexts only), the process count `N`, declared
// state variables, and enum constants. Everything compiles to closures over
// a typed int64 value domain; every numeric expression carries static
// interval bounds, which is how array indexing stays provably in range (so
// guards and invariants, which have no error path, can never fault at
// runtime) and how statically-safe assignments skip their range check.

// maxQuantDepth bounds quantifier nesting (forall/exists/count).
const maxQuantDepth = 8

// rtenv is the runtime evaluation environment: the state under inspection,
// the ruleset parameter i (-1 outside per-process contexts), and the
// quantifier binding stack (process numbers, so int16 holds every one up
// to maxProcesses). It is passed by value: a pointer handed to a closure
// escapes, and every guard and action would allocate one.
type rtenv struct {
	s *specState
	i int64
	b [maxQuantDepth]int16
}

// valFn evaluates one compiled expression. Booleans are 0/1.
type valFn func(e rtenv) int64

// kind classifies expression and variable types.
type kind uint8

const (
	kBool kind = iota
	kInt
	kPid
	kEnum
)

func (k kind) String() string {
	switch k {
	case kBool:
		return "bool"
	case kInt:
		return "int"
	case kPid:
		return "pid"
	case kEnum:
		return "enum"
	}
	return "?"
}

// vtype is a compiled expression's type: its kind, the enum table for kEnum,
// nullability for kPid (whether the value may be none = -1), and static
// interval bounds for numeric kinds.
type vtype struct {
	k        kind
	enum     int
	nullable bool
	lo, hi   int64
}

func (t vtype) numeric() bool { return t.k == kInt || t.k == kPid }

func (t vtype) describe(lay *layout) string {
	if t.k == kEnum {
		return "enum(" + strings.Join(lay.enums[t.enum], "|") + ")"
	}
	return t.k.String()
}

// cexpr is a compiled expression: its evaluator, type, and constant folding.
type cexpr struct {
	fn      valFn
	typ     vtype
	isConst bool
	cval    int64
}

// --- Lexer ---

type tokKind uint8

const (
	tEOF tokKind = iota
	tInt
	tIdent
	tOp // operators and punctuation, in tok.text
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

// lex tokenizes src fully up front; errors carry the byte offset.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			toks = append(toks, token{tInt, src[i:j], i})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			toks = append(toks, token{tIdent, src[i:j], i})
			i = j
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "==", "!=", "<=", ">=", "&&", "||":
				toks = append(toks, token{tOp, two, i})
				i += 2
				continue
			}
			switch c {
			case '(', ')', '[', ']', ',', '!', '<', '>', '+', '-', '*', '%', '=':
				toks = append(toks, token{tOp, string(c), i})
				i++
			default:
				return nil, fmt.Errorf("unexpected character %q at offset %d", string(c), i)
			}
		}
	}
	toks = append(toks, token{tEOF, "", len(src)})
	return toks, nil
}

// --- Parser (to a small AST) ---

type node interface{ pos() int }

type nLit struct {
	p   int
	val int64
	k   kind // kInt, kBool, or kPid (the `none` literal)
}

type nIdent struct {
	p    int
	name string
}

type nIndex struct {
	p    int
	name string
	idx  node
}

type nUnary struct {
	p  int
	op string
	x  node
}

type nBinary struct {
	p    int
	op   string
	x, y node
}

type nQuant struct {
	p    int
	fn   string // forall | exists | count
	v    string
	body node
}

func (n *nLit) pos() int    { return n.p }
func (n *nIdent) pos() int  { return n.p }
func (n *nIndex) pos() int  { return n.p }
func (n *nUnary) pos() int  { return n.p }
func (n *nBinary) pos() int { return n.p }
func (n *nQuant) pos() int  { return n.p }

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) accept(op string) bool {
	if t := p.peek(); t.kind == tOp && t.text == op {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(op string) error {
	if !p.accept(op) {
		t := p.peek()
		return fmt.Errorf("expected %q at offset %d, found %q", op, t.pos, tokenText(t))
	}
	return nil
}

func tokenText(t token) string {
	if t.kind == tEOF {
		return "end of expression"
	}
	return t.text
}

// parseExpr parses a full expression and requires it to consume all input.
func parseExpr(src string) (node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	n, err := p.or()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tEOF {
		return nil, fmt.Errorf("unexpected %q at offset %d", t.text, t.pos)
	}
	return n, nil
}

func (p *parser) or() (node, error) {
	x, err := p.and()
	if err != nil {
		return nil, err
	}
	for {
		pos := p.peek().pos
		if !p.accept("||") {
			return x, nil
		}
		y, err := p.and()
		if err != nil {
			return nil, err
		}
		x = &nBinary{pos, "||", x, y}
	}
}

func (p *parser) and() (node, error) {
	x, err := p.cmp()
	if err != nil {
		return nil, err
	}
	for {
		pos := p.peek().pos
		if !p.accept("&&") {
			return x, nil
		}
		y, err := p.cmp()
		if err != nil {
			return nil, err
		}
		x = &nBinary{pos, "&&", x, y}
	}
}

func (p *parser) cmp() (node, error) {
	x, err := p.sum()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tOp {
		switch t.text {
		case "==", "!=", "<", "<=", ">", ">=":
			p.i++
			y, err := p.sum()
			if err != nil {
				return nil, err
			}
			return &nBinary{t.pos, t.text, x, y}, nil
		}
	}
	return x, nil
}

func (p *parser) sum() (node, error) {
	x, err := p.term()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tOp || (t.text != "+" && t.text != "-") {
			return x, nil
		}
		p.i++
		y, err := p.term()
		if err != nil {
			return nil, err
		}
		x = &nBinary{t.pos, t.text, x, y}
	}
}

func (p *parser) term() (node, error) {
	x, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tOp || (t.text != "*" && t.text != "%") {
			return x, nil
		}
		p.i++
		y, err := p.unary()
		if err != nil {
			return nil, err
		}
		x = &nBinary{t.pos, t.text, x, y}
	}
}

func (p *parser) unary() (node, error) {
	t := p.peek()
	if t.kind == tOp && (t.text == "!" || t.text == "-") {
		p.i++
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &nUnary{t.pos, t.text, x}, nil
	}
	return p.post()
}

func (p *parser) post() (node, error) {
	x, err := p.prim()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tOp && t.text == "[" {
		id, ok := x.(*nIdent)
		if !ok {
			return nil, fmt.Errorf("only a variable can be indexed (offset %d)", t.pos)
		}
		p.i++
		idx, err := p.or()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		return &nIndex{id.p, id.name, idx}, nil
	}
	return x, nil
}

func (p *parser) prim() (node, error) {
	t := p.next()
	switch t.kind {
	case tInt:
		v, err := strconv.ParseInt(t.text, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad integer literal %q at offset %d", t.text, t.pos)
		}
		return &nLit{t.pos, v, kInt}, nil
	case tIdent:
		switch t.text {
		case "true":
			return &nLit{t.pos, 1, kBool}, nil
		case "false":
			return &nLit{t.pos, 0, kBool}, nil
		case "none":
			return &nLit{t.pos, pidNone, kPid}, nil
		case "forall", "exists", "count":
			if err := p.expect("("); err != nil {
				return nil, err
			}
			v := p.next()
			if v.kind != tIdent {
				return nil, fmt.Errorf("%s needs a binder name at offset %d", t.text, v.pos)
			}
			if err := p.expect(","); err != nil {
				return nil, err
			}
			body, err := p.or()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &nQuant{t.pos, t.text, v.text, body}, nil
		default:
			return &nIdent{t.pos, t.text}, nil
		}
	case tOp:
		if t.text == "(" {
			x, err := p.or()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, fmt.Errorf("unexpected %q at offset %d", tokenText(t), t.pos)
}

// --- Compiler ---

// pidNone is the stored value of a null pid.
const pidNone = -1

// compiler compiles parsed expressions against a layout. allowI admits the
// ruleset parameter `i` (per-process rules and properties); bound tracks
// quantifier binders in scope.
type compiler struct {
	lay    *layout
	allowI bool
	bound  []string
}

// compileIn parses and compiles src at path, checking the result against
// want (kBool for guards/properties, or any numeric via wantNumeric).
func (c *compiler) compileBool(path, src string) (valFn, error) {
	ce, err := c.compileString(path, src)
	if err != nil {
		return nil, err
	}
	if ce.typ.k != kBool {
		return nil, specErrf(path, "expression %q has type %s, want bool", src, ce.typ.describe(c.lay))
	}
	return ce.fn, nil
}

func (c *compiler) compileString(path, src string) (*cexpr, error) {
	if strings.TrimSpace(src) == "" {
		return nil, specErrf(path, "empty expression")
	}
	n, err := parseExpr(src)
	if err != nil {
		return nil, specErrf(path, "%v", err)
	}
	ce, err := c.compile(n)
	if err != nil {
		return nil, specErrf(path, "%v", err)
	}
	return ce, nil
}

func (c *compiler) compile(n node) (*cexpr, error) {
	switch n := n.(type) {
	case *nLit:
		t := vtype{k: n.k, lo: n.val, hi: n.val}
		if n.k == kPid {
			t.nullable = true
		}
		v := n.val
		return &cexpr{fn: func(rtenv) int64 { return v }, typ: t, isConst: true, cval: v}, nil

	case *nIdent:
		return c.ident(n)

	case *nIndex:
		vi, ok := c.lay.byName[n.name]
		if !ok {
			return nil, fmt.Errorf("unknown variable %q", n.name)
		}
		if !vi.array {
			return nil, fmt.Errorf("variable %q is not per-process and cannot be indexed", n.name)
		}
		idx, err := c.compile(n.idx)
		if err != nil {
			return nil, err
		}
		if err := c.checkIndex(idx); err != nil {
			return nil, err
		}
		off := int64(vi.off)
		ifn := idx.fn
		return &cexpr{
			fn:  func(e rtenv) int64 { return int64(e.s.vals[off+ifn(e)]) },
			typ: c.varType(vi),
		}, nil

	case *nUnary:
		x, err := c.compile(n.x)
		if err != nil {
			return nil, err
		}
		switch n.op {
		case "!":
			if x.typ.k != kBool {
				return nil, fmt.Errorf("operator ! needs a bool, got %s", x.typ.describe(c.lay))
			}
			xf := x.fn
			out := &cexpr{fn: func(e rtenv) int64 { return 1 - xf(e) }, typ: vtype{k: kBool, lo: 0, hi: 1}}
			foldConst(out, x)
			return out, nil
		case "-":
			if !x.typ.numeric() {
				return nil, fmt.Errorf("operator - needs a number, got %s", x.typ.describe(c.lay))
			}
			xf := x.fn
			out := &cexpr{fn: func(e rtenv) int64 { return -xf(e) }, typ: vtype{k: kInt, lo: -x.typ.hi, hi: -x.typ.lo}}
			foldConst(out, x)
			return out, nil
		}
		return nil, fmt.Errorf("unknown unary operator %q", n.op)

	case *nBinary:
		return c.binary(n)

	case *nQuant:
		return c.quant(n)
	}
	return nil, fmt.Errorf("internal: unknown node %T", n)
}

// ident resolves a bare identifier: quantifier binders, then `i`, then `N`,
// then state variables, then enum constants.
func (c *compiler) ident(n *nIdent) (*cexpr, error) {
	for d := len(c.bound) - 1; d >= 0; d-- {
		if c.bound[d] == n.name {
			d := d
			return &cexpr{
				fn:  func(e rtenv) int64 { return int64(e.b[d]) },
				typ: vtype{k: kPid, lo: 0, hi: int64(c.lay.n) - 1},
			}, nil
		}
	}
	if n.name == "i" {
		if !c.allowI {
			return nil, fmt.Errorf(`"i" is only available in per-process rules and properties`)
		}
		return &cexpr{
			fn:  func(e rtenv) int64 { return e.i },
			typ: vtype{k: kPid, lo: 0, hi: int64(c.lay.n) - 1},
		}, nil
	}
	if n.name == "N" {
		v := int64(c.lay.n)
		return &cexpr{fn: func(rtenv) int64 { return v }, typ: vtype{k: kInt, lo: v, hi: v}, isConst: true, cval: v}, nil
	}
	if vi, ok := c.lay.byName[n.name]; ok {
		if vi.array {
			return nil, fmt.Errorf("variable %q is per-process; index it (e.g. %s[i])", n.name, n.name)
		}
		off := vi.off
		return &cexpr{
			fn:  func(e rtenv) int64 { return int64(e.s.vals[off]) },
			typ: c.varType(vi),
		}, nil
	}
	if ev, ok := c.lay.enumVals[n.name]; ok {
		v := int64(ev.ordinal)
		return &cexpr{
			fn:      func(rtenv) int64 { return v },
			typ:     vtype{k: kEnum, enum: ev.enum, lo: v, hi: v},
			isConst: true, cval: v,
		}, nil
	}
	return nil, fmt.Errorf("unknown variable %q", n.name)
}

// varType is the expression type of reading variable vi.
func (c *compiler) varType(vi *varInfo) vtype {
	t := vtype{k: vi.k, enum: vi.enum, lo: int64(vi.lo), hi: int64(vi.hi)}
	if vi.k == kPid {
		t.nullable = vi.lo < 0
	}
	return t
}

// checkIndex enforces that an array index is statically within [0, N):
// guards and invariants have no error path, so out-of-range access must be
// impossible by construction, not checked at runtime.
func (c *compiler) checkIndex(idx *cexpr) error {
	if !idx.typ.numeric() {
		return fmt.Errorf("array index has type %s, want a process number", idx.typ.describe(c.lay))
	}
	if idx.typ.lo < 0 || idx.typ.hi >= int64(c.lay.n) {
		if idx.typ.k == kPid && idx.typ.nullable {
			return fmt.Errorf("array index may be none; guard the access with a != none comparison on a concrete process instead")
		}
		return fmt.Errorf("array index bounds [%d,%d] not provably within [0,%d]", idx.typ.lo, idx.typ.hi, c.lay.n-1)
	}
	return nil
}

func foldConst(out *cexpr, in ...*cexpr) {
	for _, x := range in {
		if !x.isConst {
			return
		}
	}
	out.isConst = true
	out.cval = out.fn(rtenv{i: -1})
}

func (c *compiler) binary(n *nBinary) (*cexpr, error) {
	x, err := c.compile(n.x)
	if err != nil {
		return nil, err
	}
	// && and || short-circuit, so compile y before the type checks but keep
	// evaluation lazy.
	y, err := c.compile(n.y)
	if err != nil {
		return nil, err
	}
	xf, yf := x.fn, y.fn
	boolT := vtype{k: kBool, lo: 0, hi: 1}
	mismatch := func() error {
		return fmt.Errorf("operator %s cannot compare %s with %s", n.op, x.typ.describe(c.lay), y.typ.describe(c.lay))
	}
	var out *cexpr
	switch n.op {
	case "&&", "||":
		if x.typ.k != kBool || y.typ.k != kBool {
			return nil, fmt.Errorf("operator %s needs bool operands, got %s and %s", n.op, x.typ.describe(c.lay), y.typ.describe(c.lay))
		}
		if n.op == "&&" {
			out = &cexpr{fn: func(e rtenv) int64 {
				if xf(e) == 0 {
					return 0
				}
				return yf(e)
			}, typ: boolT}
		} else {
			out = &cexpr{fn: func(e rtenv) int64 {
				if xf(e) != 0 {
					return 1
				}
				return yf(e)
			}, typ: boolT}
		}
	case "==", "!=":
		ok := (x.typ.numeric() && y.typ.numeric()) ||
			(x.typ.k == kBool && y.typ.k == kBool) ||
			(x.typ.k == kEnum && y.typ.k == kEnum && x.typ.enum == y.typ.enum)
		if !ok {
			return nil, mismatch()
		}
		eq := n.op == "=="
		out = &cexpr{fn: func(e rtenv) int64 {
			if (xf(e) == yf(e)) == eq {
				return 1
			}
			return 0
		}, typ: boolT}
	case "<", "<=", ">", ">=":
		if !x.typ.numeric() || !y.typ.numeric() {
			return nil, mismatch()
		}
		op := n.op
		out = &cexpr{fn: func(e rtenv) int64 {
			a, b := xf(e), yf(e)
			var r bool
			switch op {
			case "<":
				r = a < b
			case "<=":
				r = a <= b
			case ">":
				r = a > b
			default:
				r = a >= b
			}
			if r {
				return 1
			}
			return 0
		}, typ: boolT}
	case "+", "-", "*", "%":
		if !x.typ.numeric() || !y.typ.numeric() {
			return nil, fmt.Errorf("operator %s needs numeric operands, got %s and %s", n.op, x.typ.describe(c.lay), y.typ.describe(c.lay))
		}
		t := vtype{k: kInt}
		switch n.op {
		case "+":
			t.lo, t.hi = x.typ.lo+y.typ.lo, x.typ.hi+y.typ.hi
			out = &cexpr{fn: func(e rtenv) int64 { return xf(e) + yf(e) }, typ: t}
		case "-":
			t.lo, t.hi = x.typ.lo-y.typ.hi, x.typ.hi-y.typ.lo
			out = &cexpr{fn: func(e rtenv) int64 { return xf(e) - yf(e) }, typ: t}
		case "*":
			t.lo, t.hi = mulBounds(x.typ, y.typ)
			out = &cexpr{fn: func(e rtenv) int64 { return xf(e) * yf(e) }, typ: t}
		case "%":
			// The modulus must be a positive constant so evaluation can never
			// divide by zero — guards and invariants have no error path.
			if !y.isConst || y.cval <= 0 {
				return nil, fmt.Errorf("the right operand of %% must be a positive constant (e.g. N)")
			}
			m := y.cval
			t.lo, t.hi = 0, m-1
			if x.typ.lo < 0 {
				t.lo = -(m - 1) // Go's % is truncated division: sign follows the dividend
			}
			out = &cexpr{fn: func(e rtenv) int64 { return xf(e) % m }, typ: t}
		}
		if out.typ.lo < -1<<30 || out.typ.hi > 1<<30 {
			return nil, fmt.Errorf("arithmetic bounds [%d,%d] too large", out.typ.lo, out.typ.hi)
		}
	default:
		return nil, fmt.Errorf("unknown operator %q", n.op)
	}
	foldConst(out, x, y)
	return out, nil
}

func mulBounds(x, y vtype) (int64, int64) {
	a := []int64{x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi}
	lo, hi := a[0], a[0]
	for _, v := range a[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func (c *compiler) quant(n *nQuant) (*cexpr, error) {
	if c.lay.n == 0 {
		return nil, fmt.Errorf("%s needs processes >= 1", n.fn)
	}
	if len(c.bound) >= maxQuantDepth {
		return nil, fmt.Errorf("quantifiers nested deeper than %d", maxQuantDepth)
	}
	if !isIdentStart(n.v[0]) {
		return nil, fmt.Errorf("bad binder name %q", n.v)
	}
	if _, clash := c.lay.byName[n.v]; clash || n.v == "i" || n.v == "N" {
		return nil, fmt.Errorf("binder %q shadows an existing name", n.v)
	}
	d := len(c.bound)
	c.bound = append(c.bound, n.v)
	body, err := c.compile(n.body)
	c.bound = c.bound[:d]
	if err != nil {
		return nil, err
	}
	if body.typ.k != kBool {
		return nil, fmt.Errorf("%s body has type %s, want bool", n.fn, body.typ.describe(c.lay))
	}
	nProcs := int64(c.lay.n)
	bf := body.fn
	switch n.fn {
	case "forall":
		return &cexpr{fn: func(e rtenv) int64 {
			for j := int64(0); j < nProcs; j++ {
				e.b[d] = int16(j)
				if bf(e) == 0 {
					return 0
				}
			}
			return 1
		}, typ: vtype{k: kBool, lo: 0, hi: 1}}, nil
	case "exists":
		return &cexpr{fn: func(e rtenv) int64 {
			for j := int64(0); j < nProcs; j++ {
				e.b[d] = int16(j)
				if bf(e) != 0 {
					return 1
				}
			}
			return 0
		}, typ: vtype{k: kBool, lo: 0, hi: 1}}, nil
	case "count":
		return &cexpr{fn: func(e rtenv) int64 {
			var cnt int64
			for j := int64(0); j < nProcs; j++ {
				e.b[d] = int16(j)
				if bf(e) != 0 {
					cnt++
				}
			}
			return cnt
		}, typ: vtype{k: kInt, lo: 0, hi: nProcs}}, nil
	}
	return nil, fmt.Errorf("unknown quantifier %q", n.fn)
}

// --- Assignment statements ---

// cassign is a compiled "lhs = rhs" statement.
type cassign struct {
	slot func(e rtenv) int // resolved destination slot
	val  valFn
	// Runtime range check (nil when the rhs bounds are statically inside the
	// variable's range). Assignments run inside Fire, which has an error
	// path, so dynamic values (e.g. holder = (holder+1) % N into a pid) are
	// checked here rather than rejected at compile time.
	check   func(v int64) error
	varName string
}

// compileAssign parses and compiles an assignment statement
// ("var = expr" or "arr[idx] = expr").
func (c *compiler) compileAssign(path, src string) (*cassign, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, specErrf(path, "%v", err)
	}
	p := &parser{toks: toks}
	t := p.next()
	if t.kind != tIdent {
		return nil, specErrf(path, "assignment must start with a variable name, found %q", tokenText(t))
	}
	vi, ok := c.lay.byName[t.text]
	if !ok {
		return nil, specErrf(path, "unknown variable %q", t.text)
	}
	a := &cassign{varName: t.text}
	if p.peek().kind == tOp && p.peek().text == "[" {
		if !vi.array {
			return nil, specErrf(path, "variable %q is not per-process and cannot be indexed", t.text)
		}
		p.i++
		idxNode, err := p.or()
		if err != nil {
			return nil, specErrf(path, "%v", err)
		}
		if err := p.expect("]"); err != nil {
			return nil, specErrf(path, "%v", err)
		}
		idx, err := c.compile(idxNode)
		if err != nil {
			return nil, specErrf(path, "%v", err)
		}
		if err := c.checkIndex(idx); err != nil {
			return nil, specErrf(path, "%v", err)
		}
		off, ifn := vi.off, idx.fn
		a.slot = func(e rtenv) int { return off + int(ifn(e)) }
	} else {
		if vi.array {
			return nil, specErrf(path, "variable %q is per-process; index it (e.g. %s[i])", t.text, t.text)
		}
		off := vi.off
		a.slot = func(rtenv) int { return off }
	}
	if err := p.expect("="); err != nil {
		return nil, specErrf(path, "%v", err)
	}
	rhsNode, err := p.or()
	if err != nil {
		return nil, specErrf(path, "%v", err)
	}
	if tk := p.peek(); tk.kind != tEOF {
		return nil, specErrf(path, "unexpected %q at offset %d", tk.text, tk.pos)
	}
	rhs, err := c.compile(rhsNode)
	if err != nil {
		return nil, specErrf(path, "%v", err)
	}

	vt := c.varType(vi)
	switch vi.k {
	case kBool:
		if rhs.typ.k != kBool {
			return nil, specErrf(path, "cannot assign %s to bool variable %q", rhs.typ.describe(c.lay), a.varName)
		}
	case kEnum:
		if rhs.typ.k != kEnum || rhs.typ.enum != vi.enum {
			return nil, specErrf(path, "cannot assign %s to %s variable %q", rhs.typ.describe(c.lay), vt.describe(c.lay), a.varName)
		}
	case kInt, kPid:
		if !rhs.typ.numeric() {
			return nil, specErrf(path, "cannot assign %s to %s variable %q", rhs.typ.describe(c.lay), vi.k, a.varName)
		}
		lo, hi := int64(vi.lo), int64(vi.hi)
		if rhs.typ.lo < lo || rhs.typ.hi > hi {
			name := a.varName
			a.check = func(v int64) error {
				if v < lo || v > hi {
					return fmt.Errorf("spec %q: assignment %s = %d out of range [%d,%d]", c.lay.name, name, v, lo, hi)
				}
				return nil
			}
		}
	}
	a.val = rhs.fn
	return a, nil
}
