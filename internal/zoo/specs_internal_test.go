package zoo

import (
	"io/fs"
	"testing"

	"verc3/examples/specs"
)

// TestEveryCommittedSpecIsAnEntry checks that each spec file under
// examples/specs is the source of some zoo entry, so the zoo-wide
// harnesses, which range over Names, reach every committed spec without a
// hand-kept list of files.
func TestEveryCommittedSpecIsAnEntry(t *testing.T) {
	files, err := fs.Glob(specs.FS, "*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed specs embedded")
	}
	sources := map[string]bool{}
	for _, e := range builders {
		sources[e.spec] = true
	}
	for _, f := range files {
		if !sources[f] {
			t.Errorf("examples/specs/%s is no zoo entry's source", f)
		}
	}
}
