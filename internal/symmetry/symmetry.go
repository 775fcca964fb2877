// Package symmetry implements scalarset-style symmetry reduction in the
// spirit of Ip & Dill ("Better Verification Through Symmetry", CHDL 1993),
// which the paper's embedded model checker supports.
//
// Symmetric agents (e.g. the replicated cache controllers of the MSI case
// study) are interchangeable: permuting their identities maps reachable
// states to reachable states and preserves all properties. The model checker
// therefore stores only one canonical representative per orbit: the
// permuted copy whose encoding is lexicographically smallest. That choice is
// exact — it gives the full reduction factor — and the canonicalizer finds
// it without encoding all |S|! copies.
//
// # Sort, then permute within ties
//
// A state that implements ts.AgentComparer orders its own agents by their
// agent-local data, under the contract that the smallest encoding is always
// attained with the agents in non-decreasing order (the encoding starts
// with those per-agent records, in slot order). The canonicalizer
// insertion-sorts the agents by it and enumerates only the arrangements
// that keep the sorted order: agents that compare equal form a tie class,
// and the arrangements are the product of the tie classes' permutations —
// an odometer of next-permutation steps over the classes. Full encodings
// of those arrangements are compared exactly as a search over all |S|!
// would compare them, so the minimum, and with it every fingerprint, is
// bit-identical to the exhaustive search; only the number of encodings per
// state drops, from |S|! to the product of the tie-class factorials (120 →
// 3.75 on average over the 5-cache MSI walk). A state without the
// capability is one tie class of size |S|: the same enumerator then visits
// all |S|! arrangements, which for the small scalarsets of protocol
// verification (2–5 agents) is still affordable.
//
// Canonicalization has two tiers mirroring the keying pipeline. Key
// minimizes formatted Key() strings — the trace/debug path, one clone and
// one string per permutation, always over all |S|! (it never consults
// ts.AgentComparer, which speaks about AppendKey only, and so stays an
// independent reference for the differential tests). Fingerprint minimizes
// ts.KeyAppender binary encodings through pooled per-worker scratch (the
// arrangement being enumerated, one reusable Clone overwritten by
// PermuteInto, two ping-pong key buffers) and hashes the minimum
// without ever materializing it: the exploration hot path, with zero
// steady-state allocations.
package symmetry

import (
	"bytes"
	"sync"

	"verc3/internal/statespace"
	"verc3/internal/ts"
)

// Permutations returns all permutations of [0, n) in a deterministic order.
// n must be small (factorial growth); protocol scalarsets are.
func Permutations(n int) [][]int {
	if n < 0 {
		panic("symmetry: negative scalarset size")
	}
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			p := make([]int, n)
			copy(p, base)
			out = append(out, p)
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// Identity reports whether perm is the identity permutation.
func Identity(perm []int) bool {
	for i, v := range perm {
		if i != v {
			return false
		}
	}
	return true
}

// Compose returns the permutation r where r[i] = a[b[i]].
func Compose(a, b []int) []int {
	r := make([]int, len(a))
	for i := range r {
		r[i] = a[b[i]]
	}
	return r
}

// Invert returns the inverse permutation of perm.
func Invert(perm []int) []int {
	r := make([]int, len(perm))
	for i, v := range perm {
		r[v] = i
	}
	return r
}

// Canonicalizer computes canonical state keys and fingerprints for a
// scalarset of a fixed size.
//
// A Canonicalizer is safe for concurrent use: a multi-worker exploration
// (internal/mc with Options.Workers > 1) shares one canonicalizer across
// all workers. Its only mutable state is a sync.Pool of per-worker scratch
// (the arrangement under enumeration, one reusable permuted clone, two key
// buffers), which a call checks out for its duration, so workers never
// contend and the hot path allocates nothing in steady state.
type Canonicalizer struct {
	n    int
	pool sync.Pool
}

// scratch is the reusable per-call canonicalization state: the arrangement
// enumerator, the state PermuteInto overwrites once per arrangement, and
// the two encoding buffers Fingerprint ping-pongs between while tracking
// the lexicographic minimum.
type scratch struct {
	arr  arrangement
	dst  ts.State // a Clone of the first state fingerprinted; nil until then
	cur  []byte
	best []byte
}

// arrangement enumerates the ways of placing n agents into n slots that
// keep a given preorder: agents sorted, ties in every order. It lives in
// the pooled scratch — its slices are handed to PermuteInto through an
// interface, so on the stack they would escape and allocate per call.
type arrangement struct {
	order []int // order[k] is the agent in slot k
	perm  []int // the inverse, perm[order[k]] = k: what Permute takes
	ties  []int // end offsets in order of the tie classes, ascending; last is n
}

// NewCanonicalizer builds a canonicalizer for a scalarset of n agents.
func NewCanonicalizer(n int) *Canonicalizer {
	if n < 0 {
		panic("symmetry: negative scalarset size")
	}
	return &Canonicalizer{n: n}
}

// For returns the canonicalizer for the agents of sys — sized by its first
// initial state that is ts.Permutable — or nil when no initial state is,
// and there is nothing to reduce.
func For(sys ts.System) *Canonicalizer {
	for _, s := range sys.Initial() {
		if p, ok := s.(ts.Permutable); ok {
			return NewCanonicalizer(p.NumAgents())
		}
	}
	return nil
}

// get checks a scratch out of the pool, building one sized to the
// scalarset — a single backing array for the three index slices — when the
// pool is empty.
func (c *Canonicalizer) get() *scratch {
	if sc, ok := c.pool.Get().(*scratch); ok {
		return sc
	}
	n := c.n
	ints := make([]int, 3*n)
	return &scratch{arr: arrangement{order: ints[:n:n], perm: ints[n : 2*n : 2*n], ties: ints[2*n : 2*n]}}
}

// start positions the enumerator on its first arrangement: the agents
// stably sorted by cmp, which is the identity when they already are in
// order. With a nil cmp every agent ties with every other — one class, and
// next walks all n! arrangements.
func (a *arrangement) start(cmp ts.AgentComparer) {
	n := len(a.order)
	for i := range a.order {
		a.order[i] = i
	}
	a.ties = a.ties[:0]
	if cmp != nil {
		for k := 1; k < n; k++ {
			for j := k; j > 0 && cmp.CompareAgents(a.order[j-1], a.order[j]) > 0; j-- {
				a.order[j-1], a.order[j] = a.order[j], a.order[j-1]
			}
		}
		for k := 1; k < n; k++ {
			if cmp.CompareAgents(a.order[k-1], a.order[k]) != 0 {
				a.ties = append(a.ties, k)
			}
		}
	}
	a.ties = append(a.ties, n)
	a.invert()
}

// next steps to the next arrangement and reports false once all have been
// visited. It is an odometer over the tie classes: each class runs through
// its permutations in lexicographic order of agent index (the stable sort
// left every class ascending), and a class that wraps around carries into
// the one after it.
func (a *arrangement) next() bool {
	lo := 0
	for _, hi := range a.ties {
		if nextPermutation(a.order[lo:hi]) {
			a.invert()
			return true
		}
		lo = hi
	}
	return false
}

func (a *arrangement) invert() {
	for k, agent := range a.order {
		a.perm[agent] = k
	}
}

// nextPermutation rearranges p into its lexicographic successor. At the
// last permutation it wraps p back to ascending order and returns false.
func nextPermutation(p []int) bool {
	i := len(p) - 2
	for i >= 0 && p[i] > p[i+1] {
		i--
	}
	for l, r := i+1, len(p)-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
	if i < 0 {
		return false
	}
	j := i + 1
	for p[j] < p[i] {
		j++
	}
	p[i], p[j] = p[j], p[i]
	return true
}

// Permuted returns a fresh state equal to s with every agent index i renamed
// to perm[i]: PermuteInto against a Clone. It is the allocating form the
// reference tiers below and tests use; Fingerprint reuses one destination.
func Permuted(s ts.Permutable, perm []int) ts.State {
	cp := s.Clone()
	s.PermuteInto(cp, perm)
	return cp
}

// Key returns the canonical key of s: the lexicographically smallest Key()
// over all permutations of s's agents. If s does not implement
// ts.Permutable, its plain key is returned.
//
// This is the string tier of the keying pipeline — the path traces and
// tools use, the identity the exactness oracle (internal/ts/tstest) keys
// symmetric states by, and the reference the differential tests hold the
// exploration path against: it tries every permutation,
// whatever the state says about its agents. The exploration hot path uses
// Fingerprint instead, which never materializes a string.
func (c *Canonicalizer) Key(s ts.State) string {
	p, ok := s.(ts.Permutable)
	if !ok {
		return s.Key()
	}
	sc := c.get()
	sc.arr.start(nil)
	best := s.Key()
	for sc.arr.next() {
		if k := Permuted(p, sc.arr.perm).Key(); k < best {
			best = k
		}
	}
	c.pool.Put(sc)
	return best
}

// Fingerprint returns the 64-bit fingerprint of s's canonical binary
// encoding: the lexicographically smallest AppendKey output over all
// permutations of s's agents. The minimum is taken over binary encodings,
// not Key strings, so the chosen orbit representative can differ from
// Key's — irrelevant to the checker, which only needs all members of an
// orbit to agree on one fingerprint and distinct orbits to disagree, and
// both follow from AppendKey's injectivity (the encoding multiset of an
// orbit is permutation-invariant).
//
// When s implements ts.AgentComparer only the arrangements that keep its
// agents sorted are encoded (see the package comment); the comparer's
// contract makes the minimum over those the minimum over all.
//
// In steady state the call allocates nothing: per-call scratch — the
// arrangement, the Clone that PermuteInto overwrites, the two encoding
// buffers — is pooled on the canonicalizer.
func (c *Canonicalizer) Fingerprint(s ts.State) statespace.Fingerprint {
	p, ok := s.(ts.Permutable)
	if !ok {
		sc := c.get()
		sc.best = s.AppendKey(sc.best[:0])
		fp := statespace.OfBytes(sc.best)
		c.pool.Put(sc)
		return fp
	}
	sc := c.get()
	cmp, _ := s.(ts.AgentComparer)
	sc.arr.start(cmp)
	if sc.dst == nil {
		sc.dst = p.Clone()
	}
	// Only the first arrangement can be the identity (it is whenever the
	// agents are already in order), and then s encodes as it stands.
	sorted := Identity(sc.arr.perm)
	best, cur := sc.best[:0], sc.cur
	for first := true; first || sc.arr.next(); first = false {
		pa := s
		if !(first && sorted) {
			p.PermuteInto(sc.dst, sc.arr.perm)
			pa = sc.dst
		}
		cur = pa.AppendKey(cur[:0])
		if first || bytes.Compare(cur, best) < 0 {
			best, cur = cur, best
		}
	}
	fp := statespace.OfBytes(best)
	sc.best, sc.cur = best, cur
	c.pool.Put(sc)
	return fp
}

// Orbit returns the number of distinct keys in the symmetry orbit of s
// (useful in tests: reduction factor = mean orbit size).
func (c *Canonicalizer) Orbit(s ts.State) int {
	p, ok := s.(ts.Permutable)
	if !ok {
		return 1
	}
	sc := c.get()
	sc.arr.start(nil)
	seen := make(map[string]struct{})
	for more := true; more; more = sc.arr.next() {
		seen[Permuted(p, sc.arr.perm).Key()] = struct{}{}
	}
	c.pool.Put(sc)
	return len(seen)
}
