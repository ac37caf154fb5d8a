package coherence

import (
	"math/rand"
	"testing"

	"cohort/internal/config"
)

func TestDirectoryFirstTouchMemOwned(t *testing.T) {
	d := NewDirectory()
	if d.Peek(5) != nil {
		t.Fatal("Peek created a line")
	}
	li := d.Get(5)
	if li.Owner != MemOwner {
		t.Fatalf("first touch owner = %d, want MemOwner", li.Owner)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Get(5) != li {
		t.Fatal("Get not idempotent")
	}
}

// TestWaiterFIFO drives the per-core waiter slots through a seeded random
// sequence of enqueues and pops over several lines, checked after every
// step against a reference FIFO per line: order, HeadWaiter, PendingInv,
// rejection of a second enqueue of a queued core, and a full drain.
func TestWaiterFIFO(t *testing.T) {
	d := NewDirectory()
	addrs := []uint64{3, 7, 11, 64, 1 << 40}
	cores := []int{0, 1, 2, 3, 5, 8, 13, 31, 32, config.MaxCores - 1}
	ref := make(map[uint64][]Waiter)
	waiting := make(map[int]uint64) // queued core → its line

	check := func(step int) {
		t.Helper()
		for _, a := range addrs {
			li, want := d.Get(a), ref[a]
			if li.PendingInv() != (len(want) > 0) {
				t.Fatalf("step %d line %d: PendingInv = %v with %d waiters", step, a, li.PendingInv(), len(want))
			}
			h := d.HeadWaiter(li)
			switch {
			case len(want) == 0 && h != nil:
				t.Fatalf("step %d line %d: HeadWaiter = %+v on an empty FIFO", step, a, *h)
			case len(want) > 0 && (h == nil || *h != want[0]):
				t.Fatalf("step %d line %d: HeadWaiter = %v, want %+v", step, a, h, want[0])
			}
		}
	}
	pop := func(step int, a uint64) {
		t.Helper()
		want := ref[a][0]
		if got := d.PopWaiter(d.Get(a)); got != want {
			t.Fatalf("step %d line %d: PopWaiter = %+v, want %+v", step, a, got, want)
		}
		ref[a] = ref[a][1:]
		delete(waiting, want.Core)
	}

	rng := rand.New(rand.NewSource(21))
	check(-1)
	for step := 0; step < 4000; step++ {
		a := addrs[rng.Intn(len(addrs))]
		if len(ref[a]) > 0 && rng.Intn(3) == 0 {
			pop(step, a)
		} else {
			w := Waiter{Core: cores[rng.Intn(len(cores))], Write: rng.Intn(2) == 0, Broadcast: int64(step)}
			err := d.Enqueue(d.Get(a), w)
			if _, queued := waiting[w.Core]; queued {
				if err == nil {
					t.Fatalf("step %d: second enqueue of core %d accepted", step, w.Core)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				ref[a] = append(ref[a], w)
				waiting[w.Core] = a
			}
		}
		check(step)
	}
	for step, a := range addrs {
		for len(ref[a]) > 0 {
			pop(step, a)
			check(step)
		}
	}
	if len(waiting) != 0 {
		t.Fatalf("drained, yet cores %v still wait", waiting)
	}
}

func TestSharerBitmask(t *testing.T) {
	li := &LineInfo{Owner: MemOwner}
	li.AddSharer(0)
	li.AddSharer(3)
	li.AddSharer(63)
	if !li.IsSharer(0) || !li.IsSharer(3) || !li.IsSharer(63) || li.IsSharer(1) {
		t.Fatal("sharer bits wrong")
	}
	li.RemoveSharer(3)
	if li.IsSharer(3) {
		t.Fatal("RemoveSharer failed")
	}
	// Removing an absent sharer is a no-op.
	li.RemoveSharer(7)
	if !li.IsSharer(0) || !li.IsSharer(63) {
		t.Fatal("RemoveSharer clobbered other bits")
	}
}

func TestForEach(t *testing.T) {
	d := NewDirectory()
	d.Get(1)
	d.Get(2)
	d.Get(3)
	n := 0
	d.ForEach(func(uint64, *LineInfo) { n++ })
	if n != 3 {
		t.Fatalf("ForEach visited %d, want 3", n)
	}
}
