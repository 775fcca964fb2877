package statespace_test

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"verc3/internal/statespace"
)

// goldenInput is the source of TestFingerprintGolden's inputs: each is a
// prefix of it. 59 bytes is MSI's mean key length.
const goldenInput = "msi|c0:M.1.0|c1:I|c2:S.1|dir:MS.o0.p1.s0100|net=[gs.4>0.10]"

// laneWords returns n bytes holding the hash's word constants at every
// position the lanes read them from: fpWord0 (0x8ebc6af09c88c6e3) at the
// offsets lane 0 reads, fpWord1 (0x589965cc75374cc3) at lane 1's. Each such
// word xors to zero against its constant: a chaining whose word factor held
// no lane state would zero that factor there and lose the lane's earlier
// words.
func laneWords(n int) []byte {
	b := make([]byte, (n+15)/16*16)
	for i := 0; i < len(b); i += 16 {
		binary.LittleEndian.PutUint64(b[i:], 0x8ebc6af09c88c6e3)
		binary.LittleEndian.PutUint64(b[i+8:], 0x589965cc75374cc3)
	}
	return b[:n]
}

// TestFingerprintGolden pins OfBytes on fixed inputs: the empty input, a
// tail alone (7), exactly one word (8), a word and a one-byte tail (9), one
// two-lane round (16), MSI's mean key length (59), and two rounds of the
// lane constants (laneWords(32)). Changing any of these values changes
// which states can merge, so the exactness oracle's zero-merge runs must be
// repeated with the new hash before the values are updated.
func TestFingerprintGolden(t *testing.T) {
	if len(goldenInput) != 59 {
		t.Fatalf("golden input is %d bytes, want 59", len(goldenInput))
	}
	want := map[int]statespace.Fingerprint{
		0:  0x56418a307cb2bb49,
		7:  0xa42f43f1d310f4ad,
		8:  0x17b513a48fab5db3,
		9:  0x268bc75efcabac6c,
		16: 0xc45c5bb3f2cab302,
		59: 0x3f420fe8a86af672,
	}
	for n, fp := range want {
		if got := statespace.OfBytes([]byte(goldenInput[:n])); got != fp {
			t.Errorf("OfBytes(%q) = %#x, want %#x", goldenInput[:n], uint64(got), uint64(fp))
		}
	}
	if got, fp := statespace.OfBytes(laneWords(32)), statespace.Fingerprint(0x9a4fc0b68bc8db24); got != fp {
		t.Errorf("OfBytes(laneWords(32)) = %#x, want %#x", uint64(got), uint64(fp))
	}
}

// TestFingerprintBitSensitivity flips every bit of inputs of every length
// from 0 to 40 — whole two-lane rounds, a lone word, and every tail length —
// and requires each flip to change the fingerprint, and a trailing zero byte
// too: the zero-padded tail word must not hide the length. An all-zero
// input, a patterned one and the lane constants (laneWords) are tried; in
// the last, a flip in one word must survive the later words that equal
// their lane's constant.
func TestFingerprintBitSensitivity(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for _, pattern := range []int{0, 0x5b, -1} {
			b := laneWords(n)
			if pattern >= 0 {
				for i := range b {
					b[i] = byte(pattern) * byte(i+1)
				}
			}
			fp := statespace.OfBytes(b)
			if got := statespace.OfBytes(append(b[:n:n], 0)); got == fp {
				t.Errorf("len %d pattern %d: appending a zero byte leaves %#x", n, pattern, uint64(fp))
			}
			for i := 0; i < 8*n; i++ {
				b[i/8] ^= 1 << (i % 8)
				if got := statespace.OfBytes(b); got == fp {
					t.Errorf("len %d pattern %d: flipping bit %d leaves %#x", n, pattern, i, uint64(fp))
				}
				b[i/8] ^= 1 << (i % 8)
			}
		}
	}
}

// TestFingerprintDeterministicAndDistinct checks OfBytes is stable and
// collision-free over a realistic population of state keys.
func TestFingerprintDeterministicAndDistinct(t *testing.T) {
	seen := make(map[statespace.Fingerprint]string, 100000)
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("cache%d:M dir:{owner=%d,sharers=%b} net=[%d]", i%7, i%5, i, i)
		fp := statespace.OfBytes([]byte(k))
		if fp != statespace.OfBytes([]byte(k)) {
			t.Fatalf("OfBytes(%q) not deterministic", k)
		}
		if prev, dup := seen[fp]; dup && prev != k {
			t.Fatalf("collision: %q and %q -> %x", prev, k, fp)
		}
		seen[fp] = k
	}
}

var fingerprintSink statespace.Fingerprint

// BenchmarkOfBytes hashes 1,024 pseudo-random keys of 55 to 64 bytes
// (MSI's mean key is 59 bytes) in turn: the hash alone, without the
// encoding that feeds it.
func BenchmarkOfBytes(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = make([]byte, 55+r.IntN(10))
		for j := range keys[i] {
			keys[i][j] = byte(r.Uint32())
		}
	}
	for i := 0; b.Loop(); i++ {
		fingerprintSink = statespace.OfBytes(keys[i&1023])
	}
}
