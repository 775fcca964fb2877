package statespace_test

import (
	"fmt"
	"testing"

	"verc3/internal/statespace"
)

// TestOfBytesMatchesOfString pins the contract the keying pipeline rests
// on: the binary appender path (OfBytes over an encoding buffer) and the
// string path (OfString) hash identical content to identical fingerprints,
// so switching a model to ts.KeyAppender can never change dedupe results
// for the same encoded bytes.
func TestOfBytesMatchesOfString(t *testing.T) {
	cases := []string{"", "a", "msi|c0:M.1.0|net=[]", string([]byte{0, 255, 0, 1})}
	for i := 0; i < 100; i++ {
		cases = append(cases, fmt.Sprintf("state-%d|%b", i*7919, i))
	}
	for _, s := range cases {
		if got, want := statespace.OfBytes([]byte(s)), statespace.OfString(s); got != want {
			t.Errorf("OfBytes(%q) = %x, OfString = %x", s, got, want)
		}
	}
}

// TestFingerprintDeterministicAndDistinct checks OfString is stable and
// collision-free over a realistic population of state keys.
func TestFingerprintDeterministicAndDistinct(t *testing.T) {
	seen := make(map[statespace.Fingerprint]string, 100000)
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("cache%d:M dir:{owner=%d,sharers=%b} net=[%d]", i%7, i%5, i, i)
		fp := statespace.OfString(k)
		if fp != statespace.OfString(k) {
			t.Fatalf("OfString(%q) not deterministic", k)
		}
		if prev, dup := seen[fp]; dup && prev != k {
			t.Fatalf("collision: %q and %q -> %x", prev, k, fp)
		}
		seen[fp] = k
	}
}
