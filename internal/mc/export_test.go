package mc

import "unsafe"

// FrontierItemBytes is the size of one frontier entry.
const FrontierItemBytes = int(unsafe.Sizeof(item{}))

// FrontierBlockBytes reports the bytes of frontier blocks s's workers have
// allocated so far, over all of its checks.
func FrontierBlockBytes(s *Session) int {
	n := 0
	for i := range s.e.all {
		n += s.e.all[i].allocated
	}
	return n * FrontierItemBytes
}
