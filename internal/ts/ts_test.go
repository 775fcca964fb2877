package ts_test

import (
	"errors"
	"sync"
	"testing"

	"verc3/internal/ts"
)

// stubChooser returns a fixed index.
type stubChooser struct {
	idx  int
	err  error
	last string
}

func (s *stubChooser) Choose(hole string, actions []string) (int, error) {
	s.last = hole
	return s.idx, s.err
}

// TestEnvChoosePassthrough checks Env delegates to the installed chooser.
func TestEnvChoosePassthrough(t *testing.T) {
	c := &stubChooser{idx: 2}
	env := ts.NewEnv(c)
	got, err := env.Choose("h", []string{"a", "b", "c"})
	if err != nil || got != 2 {
		t.Fatalf("Choose = %d, %v", got, err)
	}
	if c.last != "h" {
		t.Errorf("hole name %q not forwarded", c.last)
	}
}

// TestEnvChooseWildcard checks ErrWildcard flows through and is detectable
// with errors.Is.
func TestEnvChooseWildcard(t *testing.T) {
	env := ts.NewEnv(&stubChooser{err: ts.ErrWildcard})
	_, err := env.Choose("h", []string{"a"})
	if !errors.Is(err, ts.ErrWildcard) {
		t.Fatalf("err = %v, want ErrWildcard", err)
	}
}

// TestNilEnvPanics: a complete model must not contain holes; calling Choose
// without a chooser is a loud programming error, not a silent default.
func TestNilEnvPanics(t *testing.T) {
	for _, env := range []*ts.Env{nil, ts.NewEnv(nil)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			env.Choose("h", []string{"a"}) //nolint:errcheck
		}()
	}
}

// poolState and foreignState are two concrete state types for the pool test.
type poolState struct{ v int }

func (s *poolState) Key() string               { return "" }
func (s *poolState) AppendKey(d []byte) []byte { return d }
func (s *poolState) Clone() ts.State           { cp := *s; return &cp }

type foreignState struct{}

func (foreignState) Key() string               { return "" }
func (foreignState) AppendKey(d []byte) []byte { return d }
func (foreignState) Clone() ts.State           { return foreignState{} }

// TestPoolRecyclesOnlyItsOwnType: every Get is counted as a hit or a miss,
// a hit hands back a state that was recycled, and a state of another type
// never comes out — from several goroutines at once, since every
// exploration worker shares the system's pool. (sync.Pool may drop any Put,
// and does so on purpose under -race, so a hit is never guaranteed.)
func TestPoolRecyclesOnlyItsOwnType(t *testing.T) {
	var p ts.Pool[*poolState]
	if _, ok := p.Get(); ok {
		t.Fatal("Get on an empty pool reported a hit")
	}
	p.Recycle(foreignState{})
	const workers, rounds = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s, ok := p.Get()
				if !ok {
					s = &poolState{}
				} else if s.v != 1 {
					t.Errorf("Get returned a state that was never recycled: %+v", s)
					return
				}
				s.v = 1
				p.Recycle(s)
			}
		}()
	}
	wg.Wait()
	hits, misses := p.PoolStats()
	if hits+misses != 1+workers*rounds {
		t.Errorf("hits %d + misses %d, want %d Gets", hits, misses, 1+workers*rounds)
	}
	if misses == 0 {
		t.Error("the first Get found the pool empty and must count as a miss")
	}
}
