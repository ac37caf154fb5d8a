package sim

import (
	stdheap "container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refItem / refHeap is a container/heap reference implementation of the
// engine's order: due cycle first, then the order events were scheduled in.
// It is the differential oracle for the sorted queue.
type refItem struct {
	at  Cycle
	seq uint64
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

// farFuture is how far out the differential schedules its far-future class,
// about as far as a scheduled mode switch lies: such an event is due after
// everything else queued, so its push walks the whole queue.
const farFuture Cycle = 1 << 24

// queueVsRef drives an Engine and the reference with one program of pushes
// and steps, and fails at the first event the engine fires out of the
// reference's order. Each event carries its scheduling number, as p0 of a
// typed event or in a closure.
type queueVsRef struct {
	t   *testing.T
	e   *Engine
	ref refHeap
}

func newQueueVsRef(t *testing.T) *queueVsRef {
	d := &queueVsRef{t: t, e: New()}
	d.e.SetHandler(d)
	return d
}

func (d *queueVsRef) HandleEvent(now Cycle, _ Kind, _ int32, seq, _ uint64) { d.fired(now, seq) }

func (d *queueVsRef) fired(now Cycle, seq uint64) {
	d.t.Helper()
	want := stdheap.Pop(&d.ref).(refItem)
	if now != want.at || seq != want.seq {
		d.t.Fatalf("engine fired event %d at cycle %d, reference event %d at cycle %d",
			seq, now, want.seq, want.at)
	}
}

// push schedules one event delay cycles out, as a closure or a typed event.
func (d *queueVsRef) push(delay Cycle, closure bool) {
	seq := d.e.Scheduled() + 1
	if closure {
		d.e.Schedule(delay, func(now Cycle) { d.fired(now, seq) })
	} else {
		d.e.ScheduleKind(delay, 0, 0, seq, 0)
	}
	stdheap.Push(&d.ref, refItem{at: d.e.Now() + delay, seq: seq})
}

// step fires the engine's next event; fired checks it is the reference's.
func (d *queueVsRef) step() {
	d.t.Helper()
	n := d.ref.Len()
	if !d.e.Step() || d.ref.Len() != n-1 {
		d.t.Fatalf("Step with %d events pending fired %d", n, n-d.ref.Len())
	}
	if d.e.Pending() != d.ref.Len() {
		d.t.Fatalf("engine holds %d events, reference %d", d.e.Pending(), d.ref.Len())
	}
}

// drain steps both until empty: the tail must agree too.
func (d *queueVsRef) drain() {
	d.t.Helper()
	for d.e.Pending() > 0 {
		d.step()
	}
	if d.ref.Len() != 0 {
		d.t.Fatalf("reference retains %d events after the engine drained", d.ref.Len())
	}
}

// TestHeap4Differential drives the engine's queue and the container/heap
// reference with an identical randomized push/step schedule and asserts
// every fired event agrees. The mix is push-heavy early and step-heavy late,
// so the queue both deepens and drains. Delays are drawn from a small range,
// so same-cycle ties are common and the scheduling order carries the order;
// one push in sixteen is far-future and must walk past every queued event.
// One in eight is a closure, which shares the order with typed events.
func TestHeap4Differential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 12345} {
		rng := rand.New(rand.NewSource(seed))
		d := newQueueVsRef(t)
		for op := 0; op < 20000; op++ {
			pushBias := 6 - 4*op/20000 // 6/10 early, 2/10 late
			if d.e.Pending() > 0 && rng.Intn(10) >= pushBias {
				d.step()
				continue
			}
			delay := Cycle(rng.Int63n(64))
			if rng.Intn(16) == 0 {
				delay += farFuture
			}
			d.push(delay, rng.Intn(8) == 0)
		}
		d.drain()
	}
}

// TestHeap4Grow checks that a reserved queue keeps its order through a
// reallocation, and that Reserve is idempotent for smaller requests. Each
// event is due after every queued one, so each push walks the whole queue.
func TestHeap4Grow(t *testing.T) {
	d := newQueueVsRef(t)
	d.e.Reserve(100)
	if cap(d.e.queue) < 100 {
		t.Fatalf("cap = %d after Reserve(100)", cap(d.e.queue))
	}
	base := cap(d.e.queue)
	d.e.Reserve(10)
	if cap(d.e.queue) != base {
		t.Fatalf("Reserve(10) reallocated: cap %d -> %d", base, cap(d.e.queue))
	}
	for i := 0; i < 200; i++ {
		d.push(Cycle(i), false)
	}
	d.drain()
}

// FuzzHeap4VsReference feeds arbitrary byte strings interpreted as a
// push/step program into the engine and the reference and requires that
// they fire the same events in the same order. A byte with the high bit set
// steps, when an event is pending. Any other byte pushes: bit 6 selects the
// far-future class, bit 5 a closure over a typed event, and the low five
// bits are the delay.
func FuzzHeap4VsReference(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x80, 0x03, 0x80, 0x80})
	f.Add([]byte("schedule-things-then-drain"))
	f.Add([]byte{0x3F, 0x3F, 0x3F, 0x80, 0x80, 0x80, 0x00})
	f.Add([]byte{0x05, 0x45, 0x05, 0x65, 0x80, 0x05, 0x40, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, prog []byte) {
		d := newQueueVsRef(t)
		for _, b := range prog {
			if b&0x80 != 0 && d.e.Pending() > 0 {
				d.step()
				continue
			}
			delay := Cycle(b & 0x1F)
			if b&0x40 != 0 {
				delay += farFuture
			}
			d.push(delay, b&0x20 != 0)
		}
		d.drain()
	})
}

// BenchmarkScheduleKindStep measures one typed push and one Step with depth
// events queued at the push, the queue's steady state in the simulator. The
// delays come from a fixed table drawn uniformly from [0, 256) cycles.
// Depth 64 is the most measured at 64 cores.
func BenchmarkScheduleKindStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var delays [1024]Cycle
	for i := range delays {
		delays[i] = Cycle(rng.Int63n(256))
	}
	for _, depth := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := New()
			e.SetHandler(nopHandler{})
			e.Reserve(depth + 1)
			for i := 0; i < depth; i++ {
				e.ScheduleKind(delays[i], 0, 0, 0, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ScheduleKind(delays[i%len(delays)], 0, 0, 0, 0)
				e.Step()
			}
		})
	}
}
