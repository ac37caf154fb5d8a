package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// RunTracker is a registry of in-flight runs for live observability: each
// run registers a RunHandle up front and bumps its atomic counters from
// wherever work happens; samplers (the debug server's /runs and /metrics
// endpoints) pull a consistent point-in-time view without ever blocking the
// run. The tracker is the live complement of the post-hoc Manifest — its
// samples are wall-clock- and scheduling-dependent by nature, so they are
// never folded into canonical snapshots, manifests or fingerprints.
//
// A nil *RunTracker is valid: Register returns a nil handle (whose methods
// are no-ops) and Sample returns nil, so untracked tools need no nil checks.
type RunTracker struct {
	clk Clock

	mu   sync.Mutex
	seq  int64
	runs map[string]*RunHandle
}

// NewRunTracker returns an empty tracker reading wall time from clk
// (WallClock in the CLIs, ManualClock in tests).
func NewRunTracker(clk Clock) *RunTracker {
	return &RunTracker{clk: clk, runs: make(map[string]*RunHandle)}
}

// Register adds a run and returns its live handle. The id is
// "<tool>-<seq>", unique within the tracker. Safe on a nil tracker
// (returns nil, whose methods are no-ops).
func (t *RunTracker) Register(tool, name string) *RunHandle {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	h := &RunHandle{
		id:        fmt.Sprintf("%s-%d", tool, t.seq),
		tool:      tool,
		name:      name,
		startedAt: t.clk.Now(),
	}
	t.runs[h.id] = h
	return h
}

// Unregister removes a run from the tracker. No-op on a nil tracker or
// handle; the handle's counters keep working detached.
func (t *RunTracker) Unregister(h *RunHandle) {
	if t == nil || h == nil {
		return
	}
	t.mu.Lock()
	delete(t.runs, h.id)
	t.mu.Unlock()
}

// Sample returns a point-in-time status of every tracked run, sorted by run
// id. Handles are collected under the lock and read outside it (the
// counters are atomics), so a sample never blocks counter updates.
func (t *RunTracker) Sample() []RunStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	handles := make([]*RunHandle, 0, len(t.runs))
	//cohort:allow maprange: collect-then-sort; the sort below restores a canonical order
	for _, h := range t.runs {
		handles = append(handles, h)
	}
	t.mu.Unlock()
	sort.Slice(handles, func(i, j int) bool { return handles[i].id < handles[j].id })

	now := t.clk.Now()
	out := make([]RunStatus, len(handles))
	for i, h := range handles {
		out[i] = h.status(now)
	}
	return out
}

// WriteJSON renders the current sample as indented JSON (the /runs
// endpoint's payload).
func (t *RunTracker) WriteJSON(w io.Writer) error {
	sample := t.Sample()
	if sample == nil {
		sample = []RunStatus{}
	}
	b, err := json.MarshalIndent(sample, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// RunHandle is one run's live progress surface: a fixed set of atomic
// counters pre-registered before the run starts, so bumping them from the
// simulator or optimizer adds no allocation and no lock to any hot path.
// Every method is safe on a nil handle (no-op), letting call sites update
// unconditionally.
type RunHandle struct {
	id        string
	tool      string
	name      string
	startedAt time.Time

	events      atomic.Int64 // trace accesses processed
	cycles      atomic.Int64 // simulated cycles completed
	cellsDone   atomic.Int64 // experiment cells finished
	cellsTotal  atomic.Int64 // experiment cells planned (0 unknown)
	generation  atomic.Int64 // GA generation reached
	generations atomic.Int64 // GA generations planned (0 unknown)
	memoHits    atomic.Int64
	memoMisses  atomic.Int64
	replays     atomic.Int64 // oracle replays completed
	done        atomic.Bool
}

// ID returns the tracker-assigned run id ("" on a nil handle).
func (h *RunHandle) ID() string {
	if h == nil {
		return ""
	}
	return h.id
}

// AddEvents adds n processed trace accesses.
func (h *RunHandle) AddEvents(n int64) {
	if h != nil {
		h.events.Add(n)
	}
}

// AddCycles adds n simulated cycles.
func (h *RunHandle) AddCycles(n int64) {
	if h != nil {
		h.cycles.Add(n)
	}
}

// SetCellsTotal records how many experiment cells the run plans to finish
// (enables the ETA estimate).
func (h *RunHandle) SetCellsTotal(n int64) {
	if h != nil {
		h.cellsTotal.Store(n)
	}
}

// AddCellsDone adds n finished experiment cells.
func (h *RunHandle) AddCellsDone(n int64) {
	if h != nil {
		h.cellsDone.Add(n)
	}
}

// SetGeneration records the GA generation most recently completed.
func (h *RunHandle) SetGeneration(gen int64) {
	if h != nil {
		h.generation.Store(gen)
	}
}

// SetGenerations records the planned GA generation count.
func (h *RunHandle) SetGenerations(n int64) {
	if h != nil {
		h.generations.Store(n)
	}
}

// AddMemoHits adds n memo-cache hits.
func (h *RunHandle) AddMemoHits(n int64) {
	if h != nil {
		h.memoHits.Add(n)
	}
}

// AddMemoMisses adds n memo-cache misses.
func (h *RunHandle) AddMemoMisses(n int64) {
	if h != nil {
		h.memoMisses.Add(n)
	}
}

// AddReplays adds n completed oracle replays.
func (h *RunHandle) AddReplays(n int64) {
	if h != nil {
		h.replays.Add(n)
	}
}

// Finish marks the run complete (it stays visible until Unregister).
func (h *RunHandle) Finish() {
	if h != nil {
		h.done.Store(true)
	}
}

// status snapshots the handle at the given wall time.
func (h *RunHandle) status(now time.Time) RunStatus {
	elapsed := now.Sub(h.startedAt).Seconds()
	if elapsed < 0 {
		elapsed = 0
	}
	st := RunStatus{
		ID:             h.id,
		Tool:           h.tool,
		Name:           h.name,
		StartedAt:      h.startedAt.UTC().Format(time.RFC3339Nano),
		ElapsedSeconds: elapsed,
		Done:           h.done.Load(),
		Events:         h.events.Load(),
		Cycles:         h.cycles.Load(),
		CellsDone:      h.cellsDone.Load(),
		CellsTotal:     h.cellsTotal.Load(),
		Generation:     h.generation.Load(),
		Generations:    h.generations.Load(),
		MemoHits:       h.memoHits.Load(),
		MemoMisses:     h.memoMisses.Load(),
		Replays:        h.replays.Load(),
		ETASeconds:     -1,
	}
	if elapsed > 0 {
		st.EventsPerSecond = float64(st.Events) / elapsed
		st.CyclesPerSecond = float64(st.Cycles) / elapsed
	}
	if !st.Done && st.CellsTotal > 0 && st.CellsDone > 0 {
		st.ETASeconds = elapsed * float64(st.CellsTotal-st.CellsDone) / float64(st.CellsDone)
	}
	if st.Done {
		st.ETASeconds = 0
	}
	return st
}

// RunStatus is one run's pull-sampled progress: raw counters plus derived
// per-run rates and a cell-based ETA (-1 when unknown). Samples depend on
// wall time and scheduling — they serve live dashboards only and never
// enter canonical output.
type RunStatus struct {
	ID              string  `json:"id"`
	Tool            string  `json:"tool"`
	Name            string  `json:"name,omitempty"`
	StartedAt       string  `json:"started_at"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	Done            bool    `json:"done"`
	Events          int64   `json:"events"`
	Cycles          int64   `json:"cycles"`
	CellsDone       int64   `json:"cells_done"`
	CellsTotal      int64   `json:"cells_total"`
	Generation      int64   `json:"generation"`
	Generations     int64   `json:"generations"`
	MemoHits        int64   `json:"memo_hits"`
	MemoMisses      int64   `json:"memo_misses"`
	Replays         int64   `json:"replays"`
	EventsPerSecond float64 `json:"events_per_second"`
	CyclesPerSecond float64 `json:"cycles_per_second"`
	ETASeconds      float64 `json:"eta_seconds"`
}
