// Package symmetry implements scalarset-style symmetry reduction in the
// spirit of Ip & Dill ("Better Verification Through Symmetry", CHDL 1993),
// which the paper's embedded model checker supports.
//
// Symmetric agents (e.g. the replicated cache controllers of the MSI case
// study) are interchangeable: permuting their identities maps reachable
// states to reachable states and preserves all properties. The model checker
// therefore stores only one canonical representative per orbit. For the
// small scalarsets used in protocol verification (2–5 agents) the exact
// canonicalization — minimizing the state encoding over all |S|!
// permutations — is cheap and gives the full reduction factor.
//
// Canonicalization has two tiers mirroring the keying pipeline. Key
// minimizes formatted Key() strings — the trace/debug path, one clone and
// one string per permutation. Fingerprint minimizes ts.KeyAppender binary
// encodings through pooled per-worker scratch (one reusable clone mutated
// in place by ts.InPlacePermuter, two ping-pong key buffers) and hashes
// the minimum without ever materializing it: the exploration hot path,
// with zero steady-state allocations.
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

// Canonicalizer computes canonical state keys and fingerprints. It caches
// the permutation set for the scalarset size it was built with.
//
// A Canonicalizer is safe for concurrent use: a multi-worker exploration
// (internal/mc with Options.Workers > 1) shares one canonicalizer across
// all workers. The permutation tables are immutable after
// construction; the only mutable state is a sync.Pool of per-worker
// scratch (one reusable permuted clone plus two key buffers), which
// Fingerprint checks out for the duration of a call, so workers never
// contend and the hot path allocates nothing in steady state.
type Canonicalizer struct {
	perms [][]int // all permutations, identity first (Orbit)
	nonID [][]int // non-identity permutations (Key/Fingerprint hot path)
	pool  sync.Pool
}

// scratch is the reusable per-call canonicalization state: a permuted
// clone mutated in place by ts.InPlacePermuter states, and the two
// encoding buffers Fingerprint ping-pongs between while tracking the
// lexicographic minimum.
type scratch struct {
	dst  ts.State // lazily created from InPlacePermuter.Scratch; nil until then
	cur  []byte
	best []byte
}

// NewCanonicalizer builds a canonicalizer for a scalarset of n agents.
func NewCanonicalizer(n int) *Canonicalizer {
	c := &Canonicalizer{perms: Permutations(n)}
	// Filter the identity once at construction instead of re-testing every
	// permutation on every Key call on the hot path.
	c.nonID = make([][]int, 0, len(c.perms)-1)
	for _, perm := range c.perms {
		if !Identity(perm) {
			c.nonID = append(c.nonID, perm)
		}
	}
	c.pool.New = func() any { return &scratch{} }
	return c
}

// Key returns the canonical key of s: the lexicographically smallest Key()
// over all permutations of s's agents. If s does not implement
// ts.Permutable, its plain key is returned.
//
// This is the string tier of the keying pipeline — the path traces, tools
// and the legacy-keying ablation use. The exploration hot path uses
// Fingerprint instead, which never materializes a string.
func (c *Canonicalizer) Key(s ts.State) string {
	p, ok := s.(ts.Permutable)
	if !ok {
		return s.Key()
	}
	best := s.Key()
	for _, perm := range c.nonID {
		if k := p.Permute(perm).Key(); k < best {
			best = k
		}
	}
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
// In steady state the call allocates nothing: per-call scratch — the
// permuted clone reused across the N!−1 non-identity permutations when s
// implements ts.InPlacePermuter, plus the two encoding buffers — is pooled
// on the canonicalizer. States implementing only ts.Permutable still pay
// one clone per permutation but keep the buffer reuse; states without
// ts.KeyAppender fall back to the string path (OfString ∘ Key).
func (c *Canonicalizer) Fingerprint(s ts.State) statespace.Fingerprint {
	a, appends := s.(ts.KeyAppender)
	if !appends {
		return statespace.OfString(c.Key(s))
	}
	sc := c.pool.Get().(*scratch)
	best := a.AppendKey(sc.best[:0])
	if p, ok := s.(ts.Permutable); ok {
		cur := sc.cur
		ip, inPlace := s.(ts.InPlacePermuter)
		var dstAppender ts.KeyAppender // the scratch clone, asserted once
		if inPlace {
			if sc.dst == nil {
				sc.dst = ip.Scratch()
			}
			dstAppender = sc.dst.(ts.KeyAppender)
		}
		for _, perm := range c.nonID {
			pa := dstAppender
			if inPlace {
				ip.PermuteInto(sc.dst, perm)
			} else {
				pa = p.Permute(perm).(ts.KeyAppender)
			}
			cur = pa.AppendKey(cur[:0])
			if bytes.Compare(cur, best) < 0 {
				best, cur = cur, best
			}
		}
		sc.cur = cur
	}
	fp := statespace.OfBytes(best)
	sc.best = best
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
	seen := make(map[string]struct{}, len(c.perms))
	for _, perm := range c.perms {
		seen[p.Permute(perm).Key()] = struct{}{}
	}
	return len(seen)
}
