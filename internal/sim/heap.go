package sim

// heapItem is one queued element of a heap4: a (at, seq) ordering key and an
// arbitrary concrete payload. Keeping the key alongside the payload in a
// flat slice of concrete structs is the point of the hand-rolled heap —
// container/heap funnels every element through `any`, which boxes (one heap
// allocation per Push AND per Pop) and adds an interface-method call per
// comparison. At simulator scale that boxing dominated the allocation
// profile (≈40% of all objects in BenchmarkSimulatorThroughput).
type heapItem[T any] struct {
	at  Cycle
	seq uint64 // tie-breaker: insertion order
	v   T
}

// heap4 is a 4-ary min-heap ordered by (at, seq). A 4-ary layout halves the
// tree depth of a binary heap — fewer sift levels, and the four children of
// a node share a cache line — at the cost of three extra comparisons per
// level, a trade that favors the pop-heavy event loop. The zero value is an
// empty heap; grow preallocates backing.
//
// Ordering contract (identical to the container/heap kernel it replaced):
// the minimum element is the one with the smallest at, ties broken by
// smallest seq. Since seq is unique and monotone, the order is total.
type heap4[T any] struct {
	s []heapItem[T]
}

func (h *heap4[T]) len() int { return len(h.s) }

// grow ensures capacity for at least n additional elements without
// reallocation.
func (h *heap4[T]) grow(n int) {
	if cap(h.s)-len(h.s) >= n {
		return
	}
	ns := make([]heapItem[T], len(h.s), len(h.s)+n)
	copy(ns, h.s)
	h.s = ns
}

// before reports strict (at, seq) order between two keys.
func before(aAt Cycle, aSeq uint64, bAt Cycle, bSeq uint64) bool {
	if aAt != bAt {
		return aAt < bAt
	}
	return aSeq < bSeq
}

// push inserts an element and sifts it up to its position. The hole-moving
// formulation (shift parents down, write the new element once) saves a swap
// per level over the textbook exchange loop.
func (h *heap4[T]) push(at Cycle, seq uint64, v T) {
	h.s = append(h.s, heapItem[T]{}) //cohort:allow hotalloc: queue grows to its high-water mark, then append stays within capacity
	i := len(h.s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !before(at, seq, h.s[p].at, h.s[p].seq) {
			break
		}
		h.s[i] = h.s[p]
		i = p
	}
	h.s[i] = heapItem[T]{at: at, seq: seq, v: v}
}

// pop removes and returns the minimum element, sifting the displaced tail
// element down into place.
func (h *heap4[T]) pop() heapItem[T] {
	root := h.s[0]
	n := len(h.s) - 1
	it := h.s[n]
	var zero heapItem[T]
	h.s[n] = zero // drop payload references (closures) for the GC
	h.s = h.s[:n]
	if n == 0 {
		return root
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if before(h.s[j].at, h.s[j].seq, h.s[m].at, h.s[m].seq) {
				m = j
			}
		}
		if !before(h.s[m].at, h.s[m].seq, it.at, it.seq) {
			break
		}
		h.s[i] = h.s[m]
		i = m
	}
	h.s[i] = it
	return root
}
