package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// TestRoundCursorProperty: draining a round cursor claims, in odometer
// order, exactly the candidates no pattern matches, and counts every other
// candidate as skipped; four workers draining it claim the same multiset.
func TestRoundCursorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, 1+rng.Intn(5))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(4)
		}
		tbl := newPatternTable()
		for n := rng.Intn(6); n > 0; n-- {
			pat := make([]int, rng.Intn(len(sizes)+1))
			for i := range pat {
				pat[i] = rng.Intn(sizes[i])
				if rng.Intn(4) == 0 {
					pat[i] = Wildcard
				}
			}
			tbl.Insert(pat)
		}
		var want [][]int
		for c := make([]int, len(sizes)); ; {
			if matched, _ := tbl.Match(c); !matched {
				want = append(want, append([]int(nil), c...))
			}
			if !incr(c, sizes) {
				break
			}
		}
		drain := func(workers int) (claimed [][]int, skipped int64) {
			e := &engine{patterns: tbl}
			cur := &cursor{e: e, sizes: sizes, next: make([]int, len(sizes))}
			var mu sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for assign := make([]int, len(sizes)); cur.claim(assign); {
						mu.Lock()
						claimed = append(claimed, append([]int(nil), assign...))
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			return claimed, e.skipped
		}
		one, skipped := drain(1)
		if !reflect.DeepEqual(one, want) || uint64(skipped)+uint64(len(one)) != spaceSize(sizes) {
			t.Logf("sizes %v: claimed %v (skipped %d), want %v", sizes, one, skipped, want)
			return false
		}
		four, skipped4 := drain(4)
		sort.Slice(four, func(i, j int) bool { return fmt.Sprint(four[i]) < fmt.Sprint(four[j]) })
		sorted := append([][]int(nil), want...)
		sort.Slice(sorted, func(i, j int) bool { return fmt.Sprint(sorted[i]) < fmt.Sprint(sorted[j]) })
		if !reflect.DeepEqual(four, sorted) || skipped4 != skipped {
			t.Logf("sizes %v: four workers claimed %v (skipped %d), want %v (skipped %d)", sizes, four, skipped4, sorted, skipped)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSpaceSizeSaturation checks overflow saturates rather than wrapping.
func TestSpaceSizeSaturation(t *testing.T) {
	sizes := make([]int, 20)
	for i := range sizes {
		sizes[i] = 1 << 10
	}
	if got := spaceSize(sizes); got != math.MaxUint64 {
		t.Errorf("spaceSize = %d, want saturation", got)
	}
	if got := spaceSize([]int{3, 0, 5}); got != 0 {
		t.Errorf("spaceSize with empty dimension = %d, want 0", got)
	}
	if got := spaceSize(nil); got != 1 {
		t.Errorf("spaceSize(nil) = %d, want 1 (empty product)", got)
	}
}

// TestSpacePlusWildcard pins the paper's Table I candidate arithmetic:
// MSI-small 192²·32 and MSI-large 192²·32³.
func TestSpacePlusWildcard(t *testing.T) {
	mk := func(sizes ...int) []*holeInfo {
		hs := make([]*holeInfo, len(sizes))
		for i, s := range sizes {
			hs[i] = &holeInfo{actions: make([]string, s)}
		}
		return hs
	}
	// MSI-small: 2 dir rules (5,7,3) + 1 cache rule (3,7).
	small := mk(5, 7, 3, 5, 7, 3, 3, 7)
	if got := spaceSizePlusWildcard(small); got != 1179648 {
		t.Errorf("small wildcard space = %d, want 1179648", got)
	}
	if got := spaceSize(radices(small, len(small))); got != 231525 {
		t.Errorf("small naive space = %d, want 231525", got)
	}
	// MSI-large: + 2 cache rules.
	large := mk(5, 7, 3, 5, 7, 3, 3, 7, 3, 7, 3, 7)
	if got := spaceSizePlusWildcard(large); got != 1207959552 {
		t.Errorf("large wildcard space = %d, want 1207959552", got)
	}
	if got := spaceSize(radices(large, len(large))); got != 102102525 {
		t.Errorf("large naive space = %d, want 102102525", got)
	}
}
