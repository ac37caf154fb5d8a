package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueEngine(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("zero engine Now() = %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("zero engine Pending() = %d, want 0", e.Pending())
	}
	if e.Step() {
		t.Fatal("Step on empty engine reported an event")
	}
}

type nopHandler struct{}

func (nopHandler) HandleEvent(Cycle, Kind, int32, uint64, uint64) {}

// TestScheduledCountsEveryQueuedEvent checks that Scheduled counts closure
// and typed events alike, as they are queued: firing them, or advancing
// the clock past them, leaves the count alone.
func TestScheduledCountsEveryQueuedEvent(t *testing.T) {
	e := New()
	e.SetHandler(nopHandler{})
	e.Schedule(3, func(Cycle) {})
	e.ScheduleKind(5, 0, 0, 0, 0)
	if err := e.ScheduleKindAt(9, 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := e.Scheduled(); got != 3 {
		t.Fatalf("Scheduled = %d after queuing 3 events, want 3", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Advance(20) {
		t.Fatal("Advance on an empty queue refused")
	}
	if got := e.Scheduled(); got != 3 {
		t.Fatalf("Scheduled = %d after running them, want 3", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(10, func(Cycle) { got = append(got, 2) })
	e.Schedule(5, func(Cycle) { got = append(got, 1) })
	e.Schedule(20, func(Cycle) { got = append(got, 3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(7, func(Cycle) { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: got[%d]=%d", i, v)
		}
	}
}

func TestZeroDelayRunsInCurrentCycle(t *testing.T) {
	e := New()
	var at Cycle = -1
	e.Schedule(3, func(now Cycle) {
		e.Schedule(0, func(now2 Cycle) { at = now2 })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3 {
		t.Fatalf("zero-delay event ran at %d, want 3", at)
	}
}

// A fired closure's slot is cleared, so the queue's backing does not keep
// the closure, and whatever it captured, alive.
func TestStepReleasesFiredClosure(t *testing.T) {
	e := New()
	e.Schedule(1, func(Cycle) {})
	e.Step()
	if e.queue[:1][0].fn != nil {
		t.Fatal("the queue's backing still holds the fired closure")
	}
}

func TestScheduleAtPast(t *testing.T) {
	e := New()
	e.Schedule(10, func(Cycle) {})
	e.Step()
	if err := e.ScheduleAt(5, func(Cycle) {}); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("ScheduleAt(past) err = %v, want ErrPastEvent", err)
	}
	if err := e.ScheduleAt(10, func(Cycle) {}); err != nil {
		t.Fatalf("ScheduleAt(now) err = %v, want nil", err)
	}
	e.SetHandler(nopHandler{})
	if err := e.ScheduleKindAt(5, 0, 0, 0, 0); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("ScheduleKindAt(past) err = %v, want ErrPastEvent", err)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		schedule func(e *Engine)
	}{
		{"Schedule", func(e *Engine) { e.Schedule(-1, func(Cycle) {}) }},
		{"ScheduleKind", func(e *Engine) { e.ScheduleKind(-1, 0, 0, 0, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(-1) did not panic", tc.name)
				}
			}()
			e := New()
			e.SetHandler(nopHandler{})
			tc.schedule(e)
		}()
	}
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	New().Schedule(1, nil)
}

// A typed event is dispatched through the Handler, so queueing one on an
// engine without a Handler panics at once, not when it would fire.
func TestTypedEventWithoutHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleKind with no Handler did not panic")
		}
	}()
	New().ScheduleKind(1, 0, 0, 0, 0)
}

// Reserve(n) makes the next n pushes growth-free; a non-positive n leaves
// the queue's capacity alone.
func TestReserve(t *testing.T) {
	e := New()
	e.Reserve(64)
	reserved := cap(e.queue)
	if reserved < 64 {
		t.Fatalf("Reserve(64): capacity %d", reserved)
	}
	for i := 0; i < 64; i++ {
		e.Schedule(Cycle(i), func(Cycle) {})
	}
	if got := cap(e.queue); got != reserved {
		t.Fatalf("64 pushes after Reserve(64) grew the queue: capacity %d -> %d", reserved, got)
	}
	for _, n := range []int{0, -1} {
		e.Reserve(n)
		if got := cap(e.queue); got != reserved {
			t.Fatalf("Reserve(%d) changed capacity %d -> %d", n, reserved, got)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Cycle
	for _, d := range []Cycle{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func(now Cycle) { fired = append(fired, now) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 10 only", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %d, want 12", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all four", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
}

// TestAdvance pins when Advance may move the clock in place of a queued
// event. The probe calls it from an event at cycle 1; queued lists the other
// events pending at that moment, and until > 0 drives the engine with
// RunUntil(until) instead of Run.
func TestAdvance(t *testing.T) {
	cases := []struct {
		name   string
		queued []Cycle
		budget Cycle
		until  Cycle
		at     Cycle
		want   bool
	}{
		{name: "empty queue", at: 10, want: true},
		{name: "event due before at", queued: []Cycle{5}, at: 10},
		{name: "event due at at", queued: []Cycle{10}, at: 10},
		{name: "event due after at", queued: []Cycle{11}, at: 10, want: true},
		{name: "at the budget", budget: 10, at: 10, want: true},
		{name: "past the budget", budget: 9, at: 10},
		{name: "at now", at: 1, want: true},
		{name: "before now", at: 0},
		{name: "at the RunUntil deadline", until: 10, at: 10, want: true},
		{name: "past the RunUntil deadline", until: 9, at: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			e.SetBudget(tc.budget)
			var got bool
			var after Cycle
			e.Schedule(1, func(Cycle) {
				got = e.Advance(tc.at)
				after = e.Now()
			})
			var fired []Cycle
			for _, at := range tc.queued {
				if err := e.ScheduleAt(at, func(now Cycle) { fired = append(fired, now) }); err != nil {
					t.Fatal(err)
				}
			}
			if tc.until > 0 {
				e.RunUntil(tc.until)
			} else if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("Advance(%d) = %v, want %v", tc.at, got, tc.want)
			}
			wantAfter := Cycle(1)
			if tc.want {
				wantAfter = tc.at
			}
			if after != wantAfter {
				t.Fatalf("clock after Advance(%d) = %d, want %d", tc.at, after, wantAfter)
			}
			// A refused or granted Advance never drops or reorders the
			// queued events.
			for i, at := range tc.queued {
				if i >= len(fired) || fired[i] != at {
					t.Fatalf("queued events fired at %v, want %v", fired, tc.queued)
				}
			}
			// The deadline lasts only as long as RunUntil.
			if tc.until > 0 && !e.Advance(tc.until+100) {
				t.Fatal("RunUntil's deadline outlived the call")
			}
		})
	}
}

func TestBudget(t *testing.T) {
	e := New()
	e.SetBudget(10)
	e.Schedule(5, func(Cycle) {})
	e.Schedule(50, func(Cycle) {})
	err := e.Run()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Run err = %v, want ErrBudgetExceeded", err)
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %d, want 5 (only first event runs)", e.Now())
	}
	e.SetBudget(0)
	if err := e.Run(); err != nil {
		t.Fatalf("Run after lifting budget: %v", err)
	}
}

func TestCascadingEvents(t *testing.T) {
	e := New()
	count := 0
	var step func(now Cycle)
	step = func(now Cycle) {
		count++
		if count < 1000 {
			e.Schedule(1, step)
		}
	}
	e.Schedule(0, step)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1000 {
		t.Fatalf("count = %d, want 1000", count)
	}
	if e.Now() != 999 {
		t.Fatalf("Now = %d, want 999", e.Now())
	}
}

// Property: events always fire in nondecreasing time order regardless of the
// insertion order of delays.
func TestPropertyMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var times []Cycle
		for _, d := range delays {
			e.Schedule(Cycle(d), func(now Cycle) { times = append(times, now) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
			return false
		}
		// All delays observed exactly once.
		if len(times) != len(delays) {
			return false
		}
		want := make([]Cycle, len(delays))
		for i, d := range delays {
			want[i] = Cycle(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if times[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two engines fed the same schedule produce identical execution
// traces (determinism).
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []Cycle {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var trace []Cycle
		for i := 0; i < 500; i++ {
			e.Schedule(Cycle(rng.Intn(100)), func(now Cycle) { trace = append(trace, now) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	var step func(now Cycle)
	remaining := b.N
	step = func(now Cycle) {
		remaining--
		if remaining > 0 {
			e.Schedule(1, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
