package des

// The engine's pending-event queue is a hand-rolled indexed d-ary heap
// with d = 4. Two properties matter:
//
//   - Determinism is untouched by the heap shape. Events are ordered by
//     (time, seq) and seq is unique, so the comparison is a strict total
//     order: any correct heap pops pending events in exactly the same
//     sequence. Switching from the binary container/heap to this layout
//     is therefore bit-transparent to every simulation built on the
//     engine (pinned by TestHeapMatchesReference and the cross-engine
//     equivalence batteries).
//
//   - At population scale (100k+ armed timers, one per application) the
//     4-ary layout wins on cache behavior: the tree is half as deep as a
//     binary heap, and the up-to-four children of a node sit in adjacent
//     slots, so a sift-down touches fewer cache lines for the same
//     element count. Sift-up — the common case for Reschedule pulling a
//     deadline earlier — does strictly fewer comparisons.
//
// Every mutation keeps event.index current so Cancel and Reschedule can
// address their event in O(1) without a search.

const heapArity = 4

type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}

// up sifts the element at i toward the root until its parent is no
// larger.
//
//iosched:allocfree
func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts the element at i toward the leaves, swapping with its
// smallest child while one is smaller. It reports whether the element
// moved.
//
//iosched:allocfree
func (h eventHeap) down(i int) bool {
	n := len(h)
	i0 := i
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		best := first
		for c := first + 1; c < last; c++ {
			if h.less(c, best) {
				best = c
			}
		}
		if !h.less(best, i) {
			break
		}
		h.swap(i, best)
		i = best
	}
	return i > i0
}

// push appends ev and restores the heap property.
func (h *eventHeap) push(ev *event) {
	i := len(*h)
	ev.index = int32(i)
	*h = append(*h, ev)
	h.up(i)
}

// pop removes and returns the minimum element, marking it fired
// (index = -1).
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	if n > 0 {
		old.swap(0, n)
	}
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*h = old[:n]
	if n > 1 {
		(*h).down(0)
	}
	return ev
}

// remove deletes the element at index i, marking it cancelled.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*h = old[:n]
	if i != n {
		(*h).fix(i)
	}
}

// fix restores the heap property after the element at i changed its key
// in either direction.
//
//iosched:allocfree
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// heapify restores the heap property over the whole slice in O(n)
// (Floyd's bottom-up construction); used by ArmAll and IDTimers after a
// bulk append.
func (h eventHeap) heapify() {
	for i := (len(h) - 2) / heapArity; i >= 0; i-- {
		h.down(i)
	}
}
