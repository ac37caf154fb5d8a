package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// stepClock is a mutable test clock; Advance moves it forward.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func newStepClock() *stepClock {
	return &stepClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestRunTrackerSample(t *testing.T) {
	clk := newStepClock()
	tr := NewRunTracker(clk)
	h1 := tr.Register("cohort-bench", "fig5a")
	h2 := tr.Register("cohort-opt", "")
	if h1.ID() != "cohort-bench-1" || h2.ID() != "cohort-opt-2" {
		t.Fatalf("ids = %q, %q", h1.ID(), h2.ID())
	}

	h1.AddEvents(1000)
	h1.AddCycles(50000)
	h1.SetCellsTotal(8)
	h1.AddCellsDone(2)
	h1.AddMemoHits(3)
	h1.AddMemoMisses(5)
	h2.SetGenerations(40)
	h2.SetGeneration(7)
	h2.AddReplays(16)
	clk.Advance(2 * time.Second)

	sample := tr.Sample()
	if len(sample) != 2 {
		t.Fatalf("sample has %d runs, want 2", len(sample))
	}
	// Sorted by id: bench before opt.
	s1, s2 := sample[0], sample[1]
	if s1.ID != "cohort-bench-1" || s2.ID != "cohort-opt-2" {
		t.Fatalf("sample order: %q, %q", s1.ID, s2.ID)
	}
	if s1.Events != 1000 || s1.Cycles != 50000 || s1.CellsDone != 2 || s1.CellsTotal != 8 {
		t.Errorf("s1 counters: %+v", s1)
	}
	if s1.MemoHits != 3 || s1.MemoMisses != 5 {
		t.Errorf("s1 memo: %+v", s1)
	}
	if s1.ElapsedSeconds != 2 {
		t.Errorf("elapsed = %v, want 2", s1.ElapsedSeconds)
	}
	if s1.EventsPerSecond != 500 || s1.CyclesPerSecond != 25000 {
		t.Errorf("rates: %v ev/s, %v cy/s", s1.EventsPerSecond, s1.CyclesPerSecond)
	}
	// ETA: 2s for 2 of 8 cells → 6s remaining.
	if s1.ETASeconds != 6 {
		t.Errorf("ETA = %v, want 6", s1.ETASeconds)
	}
	if s2.Generation != 7 || s2.Generations != 40 || s2.Replays != 16 {
		t.Errorf("s2 GA progress: %+v", s2)
	}
	// No cell plan on s2 → ETA unknown.
	if s2.ETASeconds != -1 {
		t.Errorf("s2 ETA = %v, want -1", s2.ETASeconds)
	}

	h1.Finish()
	sample = tr.Sample()
	if !sample[0].Done || sample[0].ETASeconds != 0 {
		t.Errorf("finished run: done=%v eta=%v", sample[0].Done, sample[0].ETASeconds)
	}

	tr.Unregister(h1)
	sample = tr.Sample()
	if len(sample) != 1 || sample[0].ID != "cohort-opt-2" {
		t.Fatalf("after unregister: %+v", sample)
	}
	// Detached handles keep counting without panicking.
	h1.AddEvents(1)
}

func TestRunTrackerNil(t *testing.T) {
	var tr *RunTracker
	h := tr.Register("tool", "name")
	if h != nil {
		t.Fatalf("nil tracker returned non-nil handle")
	}
	if got := tr.Sample(); got != nil {
		t.Fatalf("nil tracker sample = %v", got)
	}
	tr.Unregister(h)
	// Every handle method must be a no-op on nil.
	h.AddEvents(1)
	h.AddCycles(1)
	h.SetCellsTotal(1)
	h.AddCellsDone(1)
	h.SetGeneration(1)
	h.SetGenerations(1)
	h.AddMemoHits(1)
	h.AddMemoMisses(1)
	h.AddReplays(1)
	h.Finish()
	if h.ID() != "" {
		t.Errorf("nil handle id = %q", h.ID())
	}
}

func TestRunTrackerWriteJSON(t *testing.T) {
	clk := newStepClock()
	tr := NewRunTracker(clk)
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON empty: %v", err)
	}
	if got := strings.TrimSpace(b.String()); got != "[]" {
		t.Errorf("empty tracker JSON = %q, want []", got)
	}

	h := tr.Register("cohort-sim", "trace.csv")
	h.AddEvents(12)
	b.Reset()
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded []RunStatus
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("payload does not parse: %v\n%s", err, b.String())
	}
	if len(decoded) != 1 || decoded[0].ID != "cohort-sim-1" || decoded[0].Events != 12 {
		t.Errorf("decoded = %+v", decoded)
	}
	if decoded[0].StartedAt != "2026-08-08T12:00:00Z" {
		t.Errorf("started_at = %q", decoded[0].StartedAt)
	}
}

// TestRunTrackerConcurrent drives registration, counter updates, sampling
// and unregistration from many goroutines at once; it exists to run under
// -race (the CI race gate includes this package).
func TestRunTrackerConcurrent(t *testing.T) {
	clk := newStepClock()
	tr := NewRunTracker(clk)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h := tr.Register("worker", "")
				h.AddEvents(10)
				h.AddCycles(100)
				h.AddMemoHits(1)
				h.Finish()
				if i%2 == 0 {
					tr.Unregister(h)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			clk.Advance(time.Millisecond)
			tr.Sample()
			var b strings.Builder
			tr.WriteJSON(&b)
		}
	}()
	wg.Wait()

	sample := tr.Sample()
	// Half the runs (odd i) stay registered: workers * 25.
	if len(sample) != workers*25 {
		t.Fatalf("got %d residual runs, want %d", len(sample), workers*25)
	}
	for _, s := range sample {
		if s.Events != 10 || s.Cycles != 100 || !s.Done {
			t.Fatalf("inconsistent run %+v", s)
		}
	}
}
