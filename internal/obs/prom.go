package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) over the registry. The
// exporter renders the same deterministic (name, labels) order as Snapshot,
// grouped into metric families so every series of a family sits under one
// # TYPE header. Metric and label names are sanitized into the Prometheus
// grammar; label values are escaped per the exposition rules.

// PromContentType is the Content-Type of the /metrics payload.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName sanitizes a metric name into [a-zA-Z_:][a-zA-Z0-9_:]*. Invalid
// runes become '_'; an empty or digit-leading name gains a '_' prefix.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promLabelName sanitizes a label name into [a-zA-Z_][a-zA-Z0-9_]* (':' is
// not legal in label names, unlike metric names).
func promLabelName(name string) string {
	s := promName(name)
	return strings.ReplaceAll(s, ":", "_")
}

// promLabelValue escapes a label value per the exposition format: backslash,
// double quote and newline. It iterates bytes, not runes — the escaped
// characters are all single-byte ASCII, and byte iteration passes invalid
// UTF-8 through unchanged instead of mangling it into U+FFFD.
func promLabelValue(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// promLabels renders a label set as {k="v",...}, with an extra le pair
// appended for histogram buckets (le == "" omits it). Returns "" for an
// empty set.
func promLabels(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promLabelName(l.Key))
		b.WriteString(`="`)
		b.WriteString(promLabelValue(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(promLabelValue(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promType maps a registry kind to the exposition TYPE keyword.
func promType(kind string) string {
	switch kind {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	default:
		return "gauge" // gauges and float gauges
	}
}

// WriteProm renders every registered metric in the Prometheus text format.
// Values are read under the registry's publication lock (Sync), so a live
// scrape observes a consistent view even while a coordinator publishes.
// Safe on a nil registry (writes nothing).
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ids := make([]string, 0, len(r.entries))
	//cohort:allow maprange: collect-then-sort; the family sort below restores a canonical order
	for id := range r.entries {
		ids = append(ids, id)
	}
	entries := make([]*entry, 0, len(ids))
	sort.Strings(ids)
	for _, id := range ids {
		entries = append(entries, r.entries[id])
	}
	r.mu.Unlock()

	// Group into families (by sanitized name) so all series of one family
	// sit under a single # TYPE line, as the format requires. Families are
	// emitted in sorted-name order; series keep their canonical id order
	// within a family.
	type family struct {
		name    string
		kind    string
		entries []*entry
	}
	byName := make(map[string]*family, len(entries))
	var names []string
	for _, e := range entries {
		fn := promName(e.name)
		f, ok := byName[fn]
		if !ok {
			f = &family{name: fn, kind: e.kind}
			byName[fn] = f
			names = append(names, fn)
		}
		f.entries = append(f.entries, e)
	}
	sort.Strings(names)

	var b strings.Builder
	r.valMu.Lock()
	defer r.valMu.Unlock()
	for _, fn := range names {
		f := byName[fn]
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, promType(f.kind))
		for _, e := range f.entries {
			switch e.kind {
			case KindFloat:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, promLabels(e.labels, ""),
					strconv.FormatFloat(e.floatFn(), 'g', -1, 64))
			case KindHistogram:
				uppers, counts := e.hist.Buckets()
				var cum int64
				for i := range uppers {
					cum += counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						promLabels(e.labels, strconv.FormatInt(uppers[i], 10)), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, promLabels(e.labels, "+Inf"), e.hist.Total())
				fmt.Fprintf(&b, "%s_sum%s %d\n", f.name, promLabels(e.labels, ""), e.hist.Sum())
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, promLabels(e.labels, ""), e.hist.Total())
			default:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, promLabels(e.labels, ""), e.intFn())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePromRuns renders a tracker sample as Prometheus series — the live
// progress counters the debug server merges into /metrics, labeled by run
// id and tool. Nil-safe on an empty sample (writes nothing).
func WritePromRuns(w io.Writer, sample []RunStatus) error {
	if len(sample) == 0 {
		return nil
	}
	var b strings.Builder
	type col struct {
		name string
		kind string
		val  func(*RunStatus) string
	}
	cols := []col{
		{"cohort_run_events_total", "counter", func(s *RunStatus) string { return strconv.FormatInt(s.Events, 10) }},
		{"cohort_run_cycles_total", "counter", func(s *RunStatus) string { return strconv.FormatInt(s.Cycles, 10) }},
		{"cohort_run_cells_done", "gauge", func(s *RunStatus) string { return strconv.FormatInt(s.CellsDone, 10) }},
		{"cohort_run_cells_total", "gauge", func(s *RunStatus) string { return strconv.FormatInt(s.CellsTotal, 10) }},
		{"cohort_run_generation", "gauge", func(s *RunStatus) string { return strconv.FormatInt(s.Generation, 10) }},
		{"cohort_run_memo_hits_total", "counter", func(s *RunStatus) string { return strconv.FormatInt(s.MemoHits, 10) }},
		{"cohort_run_memo_misses_total", "counter", func(s *RunStatus) string { return strconv.FormatInt(s.MemoMisses, 10) }},
		{"cohort_run_replays_total", "counter", func(s *RunStatus) string { return strconv.FormatInt(s.Replays, 10) }},
		{"cohort_run_elapsed_seconds", "gauge", func(s *RunStatus) string { return strconv.FormatFloat(s.ElapsedSeconds, 'g', -1, 64) }},
		{"cohort_run_events_per_second", "gauge", func(s *RunStatus) string { return strconv.FormatFloat(s.EventsPerSecond, 'g', -1, 64) }},
		{"cohort_run_eta_seconds", "gauge", func(s *RunStatus) string { return strconv.FormatFloat(s.ETASeconds, 'g', -1, 64) }},
		{"cohort_run_done", "gauge", func(s *RunStatus) string {
			if s.Done {
				return "1"
			}
			return "0"
		}},
	}
	for _, c := range cols {
		fmt.Fprintf(&b, "# TYPE %s %s\n", c.name, c.kind)
		for i := range sample {
			s := &sample[i]
			labels := []Label{L("run", s.ID), L("tool", s.Tool)}
			if s.Name != "" {
				labels = append(labels, L("name", s.Name))
			}
			fmt.Fprintf(&b, "%s%s %s\n", c.name, promLabels(labels, ""), c.val(s))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
