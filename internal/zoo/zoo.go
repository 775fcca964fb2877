// Package zoo names the built-in systems so the command-line tools and the
// repository benchmark can select them by name. The table is fixed at
// compile time; model files load through -spec (internal/spec) instead.
package zoo

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"verc3/internal/msi"
	"verc3/internal/mutex"
	"verc3/internal/tokenring"
	"verc3/internal/toy"
	"verc3/internal/ts"
)

// Params carries the knobs a named system may consume.
type Params struct {
	// Caches is the MSI cache count (0 = default 3).
	Caches int
}

// entry is one named system: its constructor, and whether it is a
// synthesis sketch (its transitions contain holes, so it can only be
// explored under a synthesis chooser — plain model checking must refuse it
// rather than let ts.Env.Choose panic).
type entry struct {
	build  func(Params) ts.System
	sketch bool
}

// builders maps system names to their entries. Nothing writes it after
// init, so Get, IsSketch and Names read it without a lock.
var builders = map[string]entry{
	"msi-complete": {build: func(p Params) ts.System {
		return msi.New(msi.Config{Caches: p.Caches, Variant: msi.Complete})
	}},
	// msi-complete-4 is the large-configuration stress entry: the complete
	// protocol pinned at 4 caches (ignoring Params.Caches), the workload
	// the pluggable visited-set backends are benchmarked on. Without
	// symmetry reduction it is the biggest state space in the zoo.
	"msi-complete-4": {build: func(Params) ts.System {
		return msi.New(msi.Config{Caches: 4, Variant: msi.Complete})
	}},
	// msi-fair is the complete protocol plus per-channel network-delivery
	// weak fairness: the starvation lasso msi-complete exhibits (the
	// directory serving the readers forever while a writer's request sits
	// in flight) is excluded as unfair, so the same liveness goals pass.
	"msi-fair": {build: func(p Params) ts.System {
		return msi.New(msi.Config{Caches: p.Caches, Variant: msi.Complete, Fair: true})
	}},
	"msi-small": {sketch: true, build: func(p Params) ts.System {
		return msi.New(msi.Config{Caches: p.Caches, Variant: msi.Small})
	}},
	"msi-large": {sketch: true, build: func(p Params) ts.System {
		return msi.New(msi.Config{Caches: p.Caches, Variant: msi.Large})
	}},
	"peterson":          {build: func(Params) ts.System { return mutex.New(false) }},
	"peterson-sketch":   {sketch: true, build: func(Params) ts.System { return mutex.New(true) }},
	"fig2":              {sketch: true, build: func(Params) ts.System { return toy.Figure2() }},
	"token-ring":        {build: func(Params) ts.System { return tokenring.New(false) }},
	"token-ring-sketch": {sketch: true, build: func(Params) ts.System { return tokenring.New(true) }},
}

// Get builds the named system.
func Get(name string, p Params) (ts.System, error) {
	e, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("unknown system %q (available: %s)", name, strings.Join(Names(), ", "))
	}
	return e.build(p), nil
}

// IsSketch reports whether the named system is a synthesis sketch — a
// skeleton with unassigned holes that only the synthesis engine can
// resolve. Unknown names report false (Get is where names are validated).
func IsSketch(name string) bool {
	return builders[name].sketch
}

// Names lists the system names in sorted order.
func Names() []string { return slices.Sorted(maps.Keys(builders)) }
