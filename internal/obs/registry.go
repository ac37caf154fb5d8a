package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"cohort/internal/stats"
)

// Metric kinds as they appear in snapshots and manifests.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindFloat     = "float"
	KindHistogram = "histogram"
)

// entry is one registered metric: either an owned handle created by the
// registry or a component-owned value read through a closure at snapshot
// time.
type entry struct {
	name    string
	labels  []Label
	kind    string
	intFn   func() int64
	floatFn func() float64
	hist    *stats.Histogram
	// owner is the registry- or component-owned handle behind intFn/floatFn,
	// when there is one; it lets the get-or-create constructors hand back the
	// same handle on repeated calls.
	owner any
}

func (e *entry) ownedCounter() (*Counter, bool) {
	c, ok := e.owner.(*Counter)
	return c, ok
}

func (e *entry) ownedGauge() (*Gauge, bool) {
	g, ok := e.owner.(*Gauge)
	return g, ok
}

// Registry is a deterministic metrics registry. Components either ask it
// for owned handles (Counter/Gauge/FloatGauge/Histogram) or register
// closures over counters they already maintain (RegisterFunc,
// RegisterCounter, RegisterHistogram) so that attaching observability never
// changes the hot path. Snapshot renders every metric in a canonical order
// (name, then labels), making snapshots byte-comparable across runs and
// worker counts.
//
// A nil *Registry is valid: handle constructors return detached metrics and
// Register* calls are no-ops, so callers never need nil checks.
//
// Registration is safe for concurrent use; values are read when the
// registry is snapshotted, after the observed run.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func metricID(name string, labels []Label) string {
	lk := labelKey(labels)
	if lk == "" {
		return name
	}
	return name + "{" + lk + "}"
}

// put registers e under its (name, labels) identity, replacing any prior
// registration — re-attaching a fresh System to a long-lived registry must
// see the new run's counters, not the dead run's.
func (r *Registry) put(e *entry) {
	r.mu.Lock()
	r.entries[metricID(e.name, e.labels)] = e
	r.mu.Unlock()
}

// lookup returns the existing entry for (name, labels), or nil.
func (r *Registry) lookup(name string, labels []Label) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[metricID(name, labels)]
}

// Counter returns the registry-owned counter for (name, labels), creating
// it on first use. On a nil registry it returns a detached counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	if e := r.lookup(name, labels); e != nil && e.kind == KindCounter {
		if c, ok := e.ownedCounter(); ok {
			return c
		}
	}
	c := &Counter{}
	r.RegisterCounter(name, c, labels...)
	return c
}

// Gauge returns the registry-owned gauge for (name, labels), creating it on
// first use. On a nil registry it returns a detached gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	if e := r.lookup(name, labels); e != nil && e.kind == KindGauge {
		if g, ok := e.ownedGauge(); ok {
			return g
		}
	}
	g := &Gauge{}
	r.put(&entry{name: name, labels: sortedLabels(labels), kind: KindGauge, intFn: g.Value, owner: g})
	return g
}

// FloatGauge returns the registry-owned float gauge for (name, labels),
// creating it on first use. On a nil registry it returns a detached gauge.
func (r *Registry) FloatGauge(name string, labels ...Label) *FloatGauge {
	if r == nil {
		return &FloatGauge{}
	}
	if e := r.lookup(name, labels); e != nil && e.kind == KindFloat {
		if g, ok := e.owner.(*FloatGauge); ok {
			return g
		}
	}
	g := &FloatGauge{}
	r.put(&entry{name: name, labels: sortedLabels(labels), kind: KindFloat, floatFn: g.Value, owner: g})
	return g
}

// Histogram returns the registry-owned histogram for (name, labels),
// creating it on first use. On a nil registry it returns a detached
// histogram.
func (r *Registry) Histogram(name string, labels ...Label) *stats.Histogram {
	if r == nil {
		return &stats.Histogram{}
	}
	if e := r.lookup(name, labels); e != nil && e.kind == KindHistogram {
		return e.hist
	}
	h := &stats.Histogram{}
	r.RegisterHistogram(name, h, labels...)
	return h
}

// RegisterCounter exposes a component-owned counter under (name, labels).
// The component keeps counting into its own field; the registry reads the
// value at snapshot time. No-op on a nil registry.
func (r *Registry) RegisterCounter(name string, c *Counter, labels ...Label) {
	if r == nil || c == nil {
		return
	}
	r.put(&entry{name: name, labels: sortedLabels(labels), kind: KindCounter, intFn: c.Value, owner: c})
}

// RegisterFunc exposes a derived integer gauge computed by fn at snapshot
// time. fn must be deterministic and safe to call after the observed run
// completes. No-op on a nil registry.
func (r *Registry) RegisterFunc(name string, fn func() int64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	r.put(&entry{name: name, labels: sortedLabels(labels), kind: KindGauge, intFn: fn})
}

// RegisterCounterFunc exposes a derived counter computed by fn at snapshot
// time (for components whose counts live in plain int64 fields). No-op on a
// nil registry.
func (r *Registry) RegisterCounterFunc(name string, fn func() int64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	r.put(&entry{name: name, labels: sortedLabels(labels), kind: KindCounter, intFn: fn})
}

// RegisterFloatFunc exposes a derived float gauge computed by fn at
// snapshot time. No-op on a nil registry.
func (r *Registry) RegisterFloatFunc(name string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	r.put(&entry{name: name, labels: sortedLabels(labels), kind: KindFloat, floatFn: fn})
}

// RegisterHistogram exposes a component-owned histogram under (name,
// labels). No-op on a nil registry.
func (r *Registry) RegisterHistogram(name string, h *stats.Histogram, labels ...Label) {
	if r == nil || h == nil {
		return
	}
	r.put(&entry{name: name, labels: sortedLabels(labels), kind: KindHistogram, hist: h})
}

// Metric is one snapshotted metric value.
type Metric struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	Value  int64   `json:"value"`
	Float  float64 `json:"float,omitempty"`
	// Histogram payload (kind == "histogram" only).
	Max          int64   `json:"max,omitempty"`
	P50          int64   `json:"p50,omitempty"`
	P99          int64   `json:"p99,omitempty"`
	BucketUppers []int64 `json:"bucket_uppers,omitempty"`
	BucketCounts []int64 `json:"bucket_counts,omitempty"`
}

// Snapshot is the full registry state in canonical (name, labels) order.
type Snapshot []Metric

// Snapshot reads every registered metric. The result is sorted by metric
// identity so identical runs produce byte-identical snapshots regardless of
// registration or map order. Safe to call on a nil registry (returns nil).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ids := make([]string, 0, len(r.entries))
	for id := range r.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	entries := make([]*entry, 0, len(ids))
	for _, id := range ids {
		entries = append(entries, r.entries[id])
	}
	r.mu.Unlock()

	snap := make(Snapshot, 0, len(entries))
	for _, e := range entries {
		m := Metric{Name: e.name, Labels: e.labels, Kind: e.kind}
		switch e.kind {
		case KindFloat:
			m.Float = e.floatFn()
		case KindHistogram:
			m.Value = e.hist.Total()
			m.Max = e.hist.Max()
			m.P50 = e.hist.Percentile(0.5)
			m.P99 = e.hist.Percentile(0.99)
			m.BucketUppers, m.BucketCounts = e.hist.Buckets()
		default:
			m.Value = e.intFn()
		}
		snap = append(snap, m)
	}
	return snap
}

// Get returns the snapshotted metric with the given name and labels, and
// whether it exists.
func (s Snapshot) Get(name string, labels ...Label) (Metric, bool) {
	want := metricID(name, labels)
	for _, m := range s {
		if metricID(m.Name, m.Labels) == want {
			return m, true
		}
	}
	return Metric{}, false
}

// JSON renders the snapshot as deterministic, indented JSON.
func (s Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Snapshot contains only plain values; marshal cannot fail.
		panic("obs: snapshot marshal: " + err.Error())
	}
	return b
}

// String renders the snapshot as an aligned text table.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, m := range s {
		id := m.Name
		if len(m.Labels) > 0 {
			id = metricID(m.Name, m.Labels)
		}
		switch m.Kind {
		case KindFloat:
			fmt.Fprintf(&b, "%-52s %14.6g\n", id, m.Float)
		case KindHistogram:
			fmt.Fprintf(&b, "%-52s %14d samples, p50 ≤ %d, p99 ≤ %d, max %d\n",
				id, m.Value, m.P50, m.P99, m.Max)
		default:
			fmt.Fprintf(&b, "%-52s %14d\n", id, m.Value)
		}
	}
	return b.String()
}
