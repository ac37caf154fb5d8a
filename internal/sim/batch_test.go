package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// fire is one observed event execution: (cycle, tag) in firing order.
type fire struct {
	at  Cycle
	tag int
}

type recordingHandler struct{ got *[]fire }

func (h recordingHandler) HandleEvent(now Cycle, kind Kind, recv int32, p0, p1 uint64) {
	*h.got = append(*h.got, fire{at: now, tag: int(p0)})
}

// driveRandom schedules a seeded random mix of closure and typed events on e
// and returns the complete firing trace. The mix covers both queue surfaces
// (closures and typed events share one (at, seq) order) plus re-scheduling
// from inside a callback, so any state leaking across a Reset — residual
// queue items, a stale seq, a nonzero now, a leftover budget — would perturb
// the trace.
func driveRandom(t *testing.T, e *Engine, seed int64) []fire {
	t.Helper()
	var got []fire
	e.SetHandler(recordingHandler{got: &got})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 200; i++ {
		tag := i
		delay := Cycle(rng.Intn(50))
		switch rng.Intn(3) {
		case 0:
			e.Schedule(delay, func(now Cycle) { got = append(got, fire{at: now, tag: tag}) })
		case 1:
			e.ScheduleKind(delay, 0, 0, uint64(tag), 0)
		default:
			e.Schedule(delay, func(now Cycle) {
				got = append(got, fire{at: now, tag: tag})
				e.ScheduleKind(3, 0, 0, uint64(1000+tag), 0)
			})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestResetEquivalentToFresh is the reuse contract behind batched evaluation:
// a Reset engine must produce a firing trace bit-identical to a fresh New()
// engine, even after a completely different prior run.
func TestResetEquivalentToFresh(t *testing.T) {
	for _, seed := range []int64{1, 42, 7777} {
		want := driveRandom(t, New(), seed)

		used := New()
		driveRandom(t, used, seed+99) // unrelated prior run
		used.SetBudget(12345)         // leftover budget must not survive Reset
		used.Reset()
		got := driveRandom(t, used, seed)

		if len(got) != len(want) {
			t.Fatalf("seed %d: reset engine fired %d events, fresh fired %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d = %+v on reset engine, %+v on fresh", seed, i, got[i], want[i])
			}
		}
	}
}

// TestResetState pins the individual field resets: time, pending count,
// budget, and the handler requirement for typed events.
func TestResetState(t *testing.T) {
	e := New()
	e.SetHandler(recordingHandler{got: new([]fire)})
	e.Schedule(10, func(Cycle) {})
	e.ScheduleKind(20, 0, 0, 0, 0)
	e.Step()
	e.SetBudget(999)
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: Now=%d Pending=%d, want 0,0", e.Now(), e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run on reset engine: %v", err)
	}
	// The handler is cleared too: a typed event without re-installing one
	// must panic, proving Reset does not leak the previous run's dispatcher.
	defer func() {
		if recover() == nil {
			t.Fatal("typed event after Reset did not panic without a handler")
		}
	}()
	e.ScheduleKind(1, 0, 0, 0, 0)
}

// TestResetKeepsCapacity is the amortization the batch driver exists for:
// after a deep run and a Reset, re-running at the same depth must not grow
// the queue backing again.
func TestResetKeepsCapacity(t *testing.T) {
	e := New()
	for i := 0; i < 1000; i++ {
		e.Schedule(Cycle(i), func(Cycle) {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	capBefore := cap(e.queue.s)
	if capBefore < 1000 {
		t.Fatalf("queue capacity %d after deep run, want >= 1000", capBefore)
	}
	for i := 0; i < 1000; i++ {
		e.Schedule(Cycle(i), func(Cycle) {})
	}
	if cap(e.queue.s) != capBefore {
		t.Fatalf("re-run at prior depth grew queue: cap %d -> %d", capBefore, cap(e.queue.s))
	}
}

func TestBatchLanes(t *testing.T) {
	b := NewBatch(3)
	if b.Lanes() != 3 {
		t.Fatalf("Lanes() = %d, want 3", b.Lanes())
	}
	seen := map[*Engine]bool{}
	for i := 0; i < b.Lanes(); i++ {
		e := b.Lane(i)
		if e == nil || seen[e] {
			t.Fatalf("lane %d: engine nil or shared with another lane", i)
		}
		seen[e] = true
	}
	// Reserve fans across lanes: every lane can absorb n pushes growth-free.
	b.Reserve(64)
	for i := 0; i < b.Lanes(); i++ {
		e := b.Lane(i)
		capBefore := cap(e.queue.s)
		for j := 0; j < 64; j++ {
			e.Schedule(Cycle(j), func(Cycle) {})
		}
		if cap(e.queue.s) != capBefore {
			t.Fatalf("lane %d grew despite Reserve: %d -> %d", i, capBefore, cap(e.queue.s))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewBatch(0) did not panic")
		}
	}()
	NewBatch(0)
}

// Each lane is an independent clock domain: running one lane must not move
// another lane's time.
func TestBatchLaneIndependence(t *testing.T) {
	b := NewBatch(2)
	b.Lane(0).Schedule(100, func(Cycle) {})
	if err := b.Lane(0).Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.Lane(1).Now(); got != 0 {
		t.Fatalf("lane 1 advanced to %d while lane 0 ran", got)
	}
}

func ExampleBatch() {
	b := NewBatch(2)
	for i := 0; i < b.Lanes(); i++ {
		i := i
		b.Lane(i).Schedule(Cycle(10*(i+1)), func(now Cycle) {
			fmt.Printf("lane %d fired at %d\n", i, now)
		})
	}
	for i := 0; i < b.Lanes(); i++ {
		if err := b.Lane(i).Run(); err != nil {
			panic(err)
		}
	}
	// Output:
	// lane 0 fired at 10
	// lane 1 fired at 20
}
