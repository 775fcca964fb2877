// Package zoo names the built-in systems so the command-line tools and the
// repository benchmark can select them by name. MSI is a Go constructor;
// every other entry — the paper's Figure 2 example, Peterson's algorithm
// and the token ring — is compiled from a committed spec under
// examples/specs, embedded at build time, so each model family has one
// frontend and each model one source. Other model files load through -spec
// instead.
package zoo

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"verc3/examples/specs"
	"verc3/internal/msi"
	"verc3/internal/spec"
	"verc3/internal/ts"
)

// Params carries the knobs a named system may consume.
type Params struct {
	// Caches is the MSI cache count (0 = default 3).
	Caches int
}

// entry is one named system: either the embedded spec file it is compiled
// from, or its constructor and whether it is a synthesis sketch (its
// transitions contain holes, so it can only be explored under a synthesis
// chooser — plain model checking must refuse it rather than let
// ts.Env.Choose panic). A spec knows whether it is a sketch itself.
type entry struct {
	spec   string
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
	"fig2":              {spec: "fig2.json"},
	"peterson":          {spec: "mutex.json"},
	"peterson-sketch":   {spec: "mutex-sketch.json"},
	"token-ring":        {spec: "tokenring.json"},
	"token-ring-sketch": {spec: "tokenring-sketch.json"},
}

// load parses and compiles an embedded spec file.
func load(file string) (*spec.Model, error) {
	data, err := specs.FS.ReadFile(file)
	if err != nil {
		return nil, err
	}
	m, err := spec.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return m, nil
}

// Get builds the named system.
func Get(name string, p Params) (ts.System, error) {
	e, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("unknown system %q (available: %s)", name, strings.Join(Names(), ", "))
	}
	if e.spec != "" {
		m, err := load(e.spec)
		if err != nil {
			return nil, err
		}
		return m.System(), nil
	}
	return e.build(p), nil
}

// IsSketch reports whether the named system is a synthesis sketch — a
// skeleton with unassigned holes that only the synthesis engine can
// resolve. Unknown names, and specs that fail to load, report false (Get
// is where both are reported).
func IsSketch(name string) bool {
	e := builders[name]
	if e.spec != "" {
		m, err := load(e.spec)
		return err == nil && m.Sketch()
	}
	return e.sketch
}

// Names lists the system names in sorted order.
func Names() []string { return slices.Sorted(maps.Keys(builders)) }
