package sim

import (
	stdheap "container/heap"
	"math/rand"
	"testing"
)

// refItem / refHeap is a container/heap reference implementation of the exact
// (at, seq) ordering contract, used as the differential oracle for heap4.
type refItem struct {
	at  Cycle
	seq uint64
	v   int
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h refHeap) peekOK(at Cycle, seq uint64) bool {
	return h[0].at == at && h[0].seq == seq
}

// TestHeap4Differential drives heap4 and the container/heap reference with an
// identical randomized push/pop schedule and asserts every pop agrees. The
// mix is push-heavy early and pop-heavy late so both growth and drain paths
// of the 4-ary sift routines are exercised; duplicate timestamps are common
// (at is drawn from a small range) so the seq tie-break carries the order.
func TestHeap4Differential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 12345} {
		rng := rand.New(rand.NewSource(seed))
		var h heap4[int]
		ref := &refHeap{}
		var seq uint64
		pops := 0
		for op := 0; op < 20000; op++ {
			pushBias := 6 - 4*op/20000 // 6/10 early, 2/10 late
			if h.len() == 0 || rng.Intn(10) < pushBias {
				at := Cycle(rng.Int63n(64))
				seq++
				h.push(at, seq, int(seq))
				stdheap.Push(ref, refItem{at: at, seq: seq, v: int(seq)})
				continue
			}
			wantAt, wantSeq := h.s[0].at, h.s[0].seq
			if !ref.peekOK(wantAt, wantSeq) {
				t.Fatalf("seed %d op %d: heap4 head (%d,%d), reference head (%d,%d)",
					seed, op, wantAt, wantSeq, (*ref)[0].at, (*ref)[0].seq)
			}
			got := h.pop()
			want := stdheap.Pop(ref).(refItem)
			if got.at != want.at || got.seq != want.seq || got.v != want.v {
				t.Fatalf("seed %d pop %d: heap4 (%d,%d,%d), reference (%d,%d,%d)",
					seed, pops, got.at, got.seq, got.v, want.at, want.seq, want.v)
			}
			pops++
		}
		// Drain both fully: the tail must agree too.
		for h.len() > 0 {
			got := h.pop()
			want := stdheap.Pop(ref).(refItem)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d drain: heap4 (%d,%d), reference (%d,%d)",
					seed, got.at, got.seq, want.at, want.seq)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("seed %d: reference retains %d items after heap4 drained", seed, ref.Len())
		}
	}
}

// TestHeap4Grow checks that a pre-grown heap neither loses items nor breaks
// ordering, and that grow is idempotent for smaller requests.
func TestHeap4Grow(t *testing.T) {
	var h heap4[int]
	h.grow(100)
	if cap(h.s) < 100 {
		t.Fatalf("cap = %d after grow(100)", cap(h.s))
	}
	base := cap(h.s)
	h.grow(10)
	if cap(h.s) != base {
		t.Fatalf("grow(10) reallocated: cap %d -> %d", base, cap(h.s))
	}
	for i := 200; i > 0; i-- {
		h.push(Cycle(i), uint64(200-i), i)
	}
	prev := Cycle(-1)
	for h.len() > 0 {
		it := h.pop()
		if it.at < prev {
			t.Fatalf("out of order after grow: %d after %d", it.at, prev)
		}
		prev = it.at
	}
}

// FuzzHeap4VsReference feeds arbitrary byte strings interpreted as a
// push/pop program into both heaps and requires identical pop sequences.
// Each byte either pushes (low 6 bits = timestamp delta class) or pops.
func FuzzHeap4VsReference(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x80, 0x03, 0x80, 0x80})
	f.Add([]byte("schedule-things-then-drain"))
	f.Add([]byte{0x3F, 0x3F, 0x3F, 0x80, 0x80, 0x80, 0x00})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var h heap4[int]
		ref := &refHeap{}
		var seq uint64
		for _, b := range prog {
			if b&0x80 != 0 && h.len() > 0 {
				got := h.pop()
				want := stdheap.Pop(ref).(refItem)
				if got.at != want.at || got.seq != want.seq || got.v != want.v {
					t.Fatalf("pop mismatch: heap4 (%d,%d,%d), reference (%d,%d,%d)",
						got.at, got.seq, got.v, want.at, want.seq, want.v)
				}
				continue
			}
			at := Cycle(b & 0x3F)
			seq++
			h.push(at, seq, int(seq))
			stdheap.Push(ref, refItem{at: at, seq: seq, v: int(seq)})
		}
		for h.len() > 0 {
			got := h.pop()
			want := stdheap.Pop(ref).(refItem)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("drain mismatch: heap4 (%d,%d), reference (%d,%d)",
					got.at, got.seq, want.at, want.seq)
			}
		}
	})
}
