package mutex_test

// Tests for the Peterson state's binary keying. PermuteInto is covered
// zoo-wide by internal/symmetry's TestZooPermuteIntoRoundTrip.

import (
	"bytes"
	"testing"

	"verc3/internal/mutex"
)

// states enumerates a representative population of mutex states (all PC
// pairs × flag pairs × turn values × ghost).
func states() []*mutex.State {
	var out []*mutex.State
	for pc0 := mutex.PC(0); pc0 <= 3; pc0++ {
		for pc1 := mutex.PC(0); pc1 <= 3; pc1++ {
			for f := 0; f < 4; f++ {
				for turn := int8(-1); turn <= 1; turn++ {
					for _, v := range []bool{false, true} {
						out = append(out, &mutex.State{
							PCs:         [2]mutex.PC{pc0, pc1},
							Flag:        [2]bool{f&1 != 0, f&2 != 0},
							Turn:        turn,
							VisitedCrit: v,
						})
					}
				}
			}
		}
	}
	return out
}

// TestAppendKeyMatchesKeyPartition checks binary/string agreement over the
// full state population: AppendKey-equality coincides with Key-equality.
func TestAppendKeyMatchesKeyPartition(t *testing.T) {
	byKey := map[string][]byte{}
	byEnc := map[string]string{}
	for _, s := range states() {
		k, enc := s.Key(), s.AppendKey(nil)
		if prev, ok := byKey[k]; ok && !bytes.Equal(prev, enc) {
			t.Fatalf("key %q encoded two ways", k)
		}
		if prevKey, ok := byEnc[string(enc)]; ok && prevKey != k {
			t.Fatalf("keys %q and %q share encoding %x", prevKey, k, enc)
		}
		byKey[k] = enc
		byEnc[string(enc)] = k
	}
}
