package zoo_test

import (
	"context"
	"slices"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

// TestAllSystemsBuild checks every registered name constructs a system with
// at least one initial state.
func TestAllSystemsBuild(t *testing.T) {
	names := zoo.Names()
	if len(names) < 6 {
		t.Fatalf("only %d systems registered", len(names))
	}
	for _, n := range names {
		sys, err := zoo.Get(n, zoo.Params{Caches: 2})
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(sys.Initial()) == 0 {
			t.Errorf("%s: no initial states", n)
		}
		if sys.Name() == "" {
			t.Errorf("%s: empty name", n)
		}
	}
}

// TestUnknownName checks the error lists the available systems.
func TestUnknownName(t *testing.T) {
	_, err := zoo.Get("nope", zoo.Params{})
	if err == nil {
		t.Fatal("want error")
	}
}

// TestSketchMetadata cross-checks the registry's sketch flags against the
// systems themselves: a sketch hits a wildcard under an all-wildcard
// environment, a complete model never calls Choose at all. This is the
// metadata verc3-verify relies on to refuse sketches with a friendly error
// instead of panicking in ts.Env.Choose.
func TestSketchMetadata(t *testing.T) {
	for _, n := range zoo.Names() {
		sys, err := zoo.Get(n, zoo.Params{Caches: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := mc.NewSession(sys, mc.Options{
			Symmetry: true,
		}).Check(context.Background(), ts.NewEnv(wildcardChooser{}), nil)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if got, want := zoo.IsSketch(n), res.WildcardHit; got != want {
			t.Errorf("IsSketch(%q) = %v, but exploration reports wildcard hit = %v", n, got, want)
		}
	}
	if zoo.IsSketch("nope") {
		t.Error("unknown names must not report as sketches")
	}
	want := []string{"fig2", "msi-large", "msi-small", "peterson-sketch", "token-ring-sketch"}
	if got := slices.DeleteFunc(zoo.Names(), func(n string) bool { return !zoo.IsSketch(n) }); !slices.Equal(got, want) {
		t.Errorf("sketches among Names() = %v, want %v", got, want)
	}
}

// wildcardChooser makes every hole a wildcard; complete models never
// call Choose.
type wildcardChooser struct{}

func (wildcardChooser) Choose(string, []string) (int, error) { return 0, ts.ErrWildcard }

// TestStressEntryPinsFourCaches checks the msi-complete-4 stress entry is
// the 4-cache protocol regardless of Params (it exists to give benchmarks
// and the stress tests a fixed large configuration).
func TestStressEntryPinsFourCaches(t *testing.T) {
	stress, err := zoo.Get("msi-complete-4", zoo.Params{Caches: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := zoo.Get("msi-complete", zoo.Params{Caches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, w := stress.Initial()[0].Key(), want.Initial()[0].Key(); got != w {
		t.Errorf("stress initial state = %q, want the 4-cache %q", got, w)
	}
	if zoo.IsSketch("msi-complete-4") {
		t.Error("stress entry must not be a sketch")
	}
}

// TestSpecEntriesNamed checks that each entry compiled from a committed
// spec reports its zoo name as its system name, so -system and the
// traces, reports and telemetry labels it produces agree.
func TestSpecEntriesNamed(t *testing.T) {
	for _, n := range []string{"peterson", "peterson-sketch", "token-ring", "token-ring-sketch"} {
		sys, err := zoo.Get(n, zoo.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.Name(); got != n {
			t.Errorf("zoo entry %q builds a system named %q", n, got)
		}
	}
}
