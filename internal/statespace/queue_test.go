package statespace

import "testing"

// TestQueueFIFO checks BFS order and the high-water mark across a
// grow-shrink-grow cycle that wraps the ring.
func TestQueueFIFO(t *testing.T) {
	var q Queue[int]
	if _, ok := q.PopFront(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	for i := 0; i < 40; i++ {
		q.PushBack(i)
	}
	for i := 0; i < 30; i++ {
		v, ok := q.PopFront()
		if !ok || v != i {
			t.Fatalf("PopFront #%d = %d, %v", i, v, ok)
		}
	}
	// Wrap the ring: head is deep into the buffer now.
	for i := 40; i < 100; i++ {
		q.PushBack(i)
	}
	for i := 30; i < 100; i++ {
		v, ok := q.PopFront()
		if !ok || v != i {
			t.Fatalf("PopFront #%d = %d, %v", i, v, ok)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after draining", q.Len())
	}
	if q.Peak() != 70 {
		t.Errorf("Peak = %d, want 70 (10 left + 60 pushed)", q.Peak())
	}
}

// TestQueueLIFO checks DFS order: PushBack + PopBack is a stack.
func TestQueueLIFO(t *testing.T) {
	var q Queue[string]
	q.PushBack("a")
	q.PushBack("b")
	q.PushBack("c")
	for _, want := range []string{"c", "b", "a"} {
		v, ok := q.PopBack()
		if !ok || v != want {
			t.Fatalf("PopBack = %q, %v, want %q", v, ok, want)
		}
	}
	if _, ok := q.PopBack(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

// TestQueueReleasesPoppedSlots checks pops zero the vacated slot — the
// property that stops the frontier from retaining popped states.
func TestQueueReleasesPoppedSlots(t *testing.T) {
	var q Queue[*int]
	x, y := new(int), new(int)
	q.PushBack(x)
	q.PushBack(y)
	q.PopFront()
	q.PopBack()
	for i := range q.buf {
		if q.buf[i] != nil {
			t.Fatalf("slot %d still holds a pointer after pop", i)
		}
	}
}

// TestQueueMixedOps interleaves fronts and backs against a reference deque.
func TestQueueMixedOps(t *testing.T) {
	var q Queue[int]
	var ref []int
	push := func(v int) { q.PushBack(v); ref = append(ref, v) }
	popF := func() {
		v, ok := q.PopFront()
		if len(ref) == 0 {
			if ok {
				t.Fatal("PopFront on empty succeeded")
			}
			return
		}
		if !ok || v != ref[0] {
			t.Fatalf("PopFront = %d, %v, want %d", v, ok, ref[0])
		}
		ref = ref[1:]
	}
	popB := func() {
		v, ok := q.PopBack()
		if len(ref) == 0 {
			if ok {
				t.Fatal("PopBack on empty succeeded")
			}
			return
		}
		if !ok || v != ref[len(ref)-1] {
			t.Fatalf("PopBack = %d, %v, want %d", v, ok, ref[len(ref)-1])
		}
		ref = ref[:len(ref)-1]
	}
	for i := 0; i < 1000; i++ {
		switch i % 5 {
		case 0, 1, 2:
			push(i)
		case 3:
			popF()
		case 4:
			popB()
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", i, q.Len(), len(ref))
		}
	}
}

// TestQueueShrinksWhenDrained checks the ring returns memory while a run is
// still going: grow wide, drain to below quarter fill, and the buffer must
// halve (repeatedly, down toward shrinkMin) while preserving FIFO contents.
func TestQueueShrinksWhenDrained(t *testing.T) {
	var q Queue[int]
	const wide = 1 << 12
	for i := 0; i < wide; i++ {
		q.PushBack(i)
	}
	grown := len(q.buf)
	if grown < wide {
		t.Fatalf("buffer %d after %d pushes", grown, wide)
	}
	for i := 0; i < wide-8; i++ {
		v, ok := q.PopFront()
		if !ok || v != i {
			t.Fatalf("PopFront #%d = %d, %v", i, v, ok)
		}
	}
	if len(q.buf) >= grown/4 {
		t.Errorf("buffer still %d (was %d) with %d elements left — never shrank", len(q.buf), grown, q.n)
	}
	// Remaining elements survived the copies, in order.
	for i := wide - 8; i < wide; i++ {
		v, ok := q.PopFront()
		if !ok || v != i {
			t.Fatalf("post-shrink PopFront = %d, %v, want %d", v, ok, i)
		}
	}
	if q.Peak() != wide {
		t.Errorf("Peak = %d, want %d", q.Peak(), wide)
	}
}

// TestQueueShrinkFloor: small buffers never shrink (shrinkMin), so the
// empty-after-drain queue keeps a reusable allocation.
func TestQueueShrinkFloor(t *testing.T) {
	var q Queue[int]
	for i := 0; i < shrinkMin; i++ {
		q.PushBack(i)
	}
	for q.Len() > 0 {
		q.PopBack()
	}
	if len(q.buf) < shrinkMin/2 {
		t.Errorf("buffer shrank to %d, below the %d floor's half", len(q.buf), shrinkMin/2)
	}
}

// TestQueueShrinkHysteresis: a shrink must leave the buffer at most half
// full, so push/pop oscillation at the boundary cannot thrash copies.
func TestQueueShrinkHysteresis(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 1024; i++ {
		q.PushBack(i)
	}
	for q.Len() > 1024/4 {
		q.PopFront()
	}
	// Sit at the shrink boundary and oscillate.
	copies := 0
	last := len(q.buf)
	for i := 0; i < 1000; i++ {
		q.PushBack(i)
		q.PopFront()
		if len(q.buf) != last {
			copies++
			last = len(q.buf)
		}
	}
	if copies > 2 {
		t.Errorf("%d buffer reallocations during boundary oscillation — hysteresis broken", copies)
	}
}
