package statespace

// Queue is a growable ring buffer for exploration frontiers: PushBack +
// PopFront is FIFO (breadth-first order), PushBack + PopBack is LIFO
// (depth-first order). The checker's own kernel walks lists of recycled
// blocks instead (internal/mc); the benchmark's independent reference walk
// (bench/walk.go) runs on this queue. Every pop zeroes the vacated slot,
// so popped elements become collectible immediately — with trace recording
// off this is what bounds retained exploration memory to the frontier
// high-water mark instead of the whole state space (the previous
// slice-with-reslicing frontier kept every popped element reachable through
// the backing array). The zero Queue is ready to use.
type Queue[T any] struct {
	buf  []T
	head int // index of the front element
	n    int // number of elements
	peak int // high-water mark of n
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Peak returns the largest length the queue ever reached.
func (q *Queue[T]) Peak() int { return q.peak }

// PushBack appends v at the back.
func (q *Queue[T]) PushBack(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(2*len(q.buf), 16))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	if q.n > q.peak {
		q.peak = q.n
	}
}

// PopFront removes and returns the front element; ok is false when empty.
func (q *Queue[T]) PopFront() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	var zero T
	v = q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.maybeShrink()
	return v, true
}

// PopBack removes and returns the back element; ok is false when empty.
func (q *Queue[T]) PopBack() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	var zero T
	i := (q.head + q.n - 1) % len(q.buf)
	v = q.buf[i]
	q.buf[i] = zero
	q.n--
	q.maybeShrink()
	return v, true
}

// shrinkMin is the buffer size below which the queue never shrinks: halving
// tiny buffers saves nothing and defeats the growth amortization.
const shrinkMin = 64

// maybeShrink halves the ring buffer when fill drops below a quarter, so
// the memory of a wide exploration level is returned while the run is still
// going rather than held until the queue itself is collected. The quarter
// threshold gives hysteresis against the doubling growth: right after a
// shrink the buffer is at most half full, so neither an immediate re-grow
// nor an immediate re-shrink can occur. Amortization survives: a shrink
// pays one copy of n elements but only after at least n pops since the
// buffer last grew or shrank.
func (q *Queue[T]) maybeShrink() {
	if len(q.buf) < shrinkMin || q.n >= len(q.buf)/4 {
		return
	}
	half := len(q.buf) / 2
	shrunk := make([]T, half)
	for i := 0; i < q.n; i++ {
		shrunk[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = shrunk, 0
}
