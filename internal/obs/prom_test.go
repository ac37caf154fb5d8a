package obs

import (
	"strings"
	"testing"
)

// TestWritePromGolden pins the full exposition format: family grouping (the
// unlabeled and labeled "foo" series must share one # TYPE header even
// though "foo_bar" sorts between their metric ids), name sanitation, label
// escaping, cumulative histogram buckets with _sum/_count, and float
// formatting.
func TestWritePromGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("foo").Add(1)
	reg.Counter("foo", L("core", "0")).Add(2)
	reg.Gauge("foo_bar").Set(5)
	reg.FloatGauge("ratio").Set(0.25)
	h := reg.Histogram("lat cycles") // space must sanitize to '_'
	h.Observe(1)
	h.Observe(3)
	h.Observe(17)
	reg.Counter("esc", L("path", "a\"b\\c\nd")).Add(9)

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	want := "# TYPE esc counter\n" +
		"esc{path=\"a\\\"b\\\\c\\nd\"} 9\n" +
		"# TYPE foo counter\n" +
		"foo 1\n" +
		"foo{core=\"0\"} 2\n" +
		"# TYPE foo_bar gauge\n" +
		"foo_bar 5\n" +
		"# TYPE lat_cycles histogram\n" +
		"lat_cycles_bucket{le=\"1\"} 1\n" +
		"lat_cycles_bucket{le=\"3\"} 2\n" +
		"lat_cycles_bucket{le=\"31\"} 3\n" +
		"lat_cycles_bucket{le=\"+Inf\"} 3\n" +
		"lat_cycles_sum 21\n" +
		"lat_cycles_count 3\n" +
		"# TYPE ratio gauge\n" +
		"ratio 0.25\n"
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePromNilRegistry(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatalf("nil WriteProm: %v", err)
	}
	if b.Len() != 0 {
		t.Errorf("nil registry wrote %q", b.String())
	}
}

func TestWritePromRuns(t *testing.T) {
	var b strings.Builder
	if err := WritePromRuns(&b, nil); err != nil {
		t.Fatalf("empty WritePromRuns: %v", err)
	}
	if b.Len() != 0 {
		t.Errorf("empty sample wrote %q", b.String())
	}
	sample := []RunStatus{{
		ID: "bench-1", Tool: "cohort-bench", Name: "fig5a",
		Events: 100, Cycles: 2000, CellsDone: 2, CellsTotal: 8,
		MemoHits: 3, MemoMisses: 5, Replays: 4,
		ElapsedSeconds: 1.5, EventsPerSecond: 66.5, ETASeconds: 4.5,
	}}
	b.Reset()
	if err := WritePromRuns(&b, sample); err != nil {
		t.Fatalf("WritePromRuns: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cohort_run_events_total counter\n",
		`cohort_run_events_total{run="bench-1",tool="cohort-bench",name="fig5a"} 100` + "\n",
		`cohort_run_cells_total{run="bench-1",tool="cohort-bench",name="fig5a"} 8` + "\n",
		"# TYPE cohort_run_replays_total counter\n",
		`cohort_run_replays_total{run="bench-1",tool="cohort-bench",name="fig5a"} 4` + "\n",
		`cohort_run_eta_seconds{run="bench-1",tool="cohort-bench",name="fig5a"} 4.5` + "\n",
		`cohort_run_done{run="bench-1",tool="cohort-bench",name="fig5a"} 0` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestPromNameEdgeCases(t *testing.T) {
	cases := map[string]string{
		"sim_events_total": "sim_events_total",
		"lat cycles":       "lat_cycles",
		"0abc":             "_0abc",
		"":                 "_",
		"a-b.c":            "a_b_c",
		"ns:metric":        "ns:metric",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := promLabelName("ns:metric"); got != "ns_metric" {
		t.Errorf("promLabelName(ns:metric) = %q, want ns_metric", got)
	}
}

func promNameValid(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || r == ':':
		case r >= 'a' && r <= 'z':
		case r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func FuzzPromName(f *testing.F) {
	for _, seed := range []string{"", "sim_events_total", "0abc", "lat cycles", "αβ", "a:b", "9", "_"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		got := promName(name)
		if !promNameValid(got) {
			t.Errorf("promName(%q) = %q: not a valid Prometheus metric name", name, got)
		}
	})
}

// promUnescape inverts promLabelValue's escaping.
func promUnescape(s string) (string, bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", false // dangling backslash: not a valid escape
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", false
		}
	}
	return b.String(), true
}

func FuzzPromLabelValue(f *testing.F) {
	for _, seed := range []string{"", `a\b`, "quote\"inside", "line\nbreak", `\\n`, `trailing\`} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		esc := promLabelValue(v)
		// The escaped form must never contain a raw newline or an unescaped
		// double quote — either would corrupt the exposition line.
		if strings.ContainsRune(esc, '\n') {
			t.Errorf("promLabelValue(%q) = %q contains a raw newline", v, esc)
		}
		got, ok := promUnescape(esc)
		if !ok {
			t.Fatalf("promLabelValue(%q) = %q: not a valid escape sequence", v, esc)
		}
		if got != v {
			t.Errorf("round trip: promUnescape(promLabelValue(%q)) = %q", v, got)
		}
	})
}
