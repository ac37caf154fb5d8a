// Command cohort-report merges the run manifests written by cohort-bench,
// cohort-opt and cohort-sim (-out-dir) into comparison reports. Manifests
// sharing a (tool, config key) pair describe the same computation — usually
// at different worker counts — so the report groups them, compares their
// wall times, and cross-checks that their metrics snapshots are
// byte-identical (the determinism contract made auditable after the fact).
//
// Usage:
//
//	cohort-report -dir results/
//	cohort-report -dir results/ -md > report.md
//	cohort-report -dir results/ -json
//	cohort-report -dir results/ -check
//	cohort-report -dir results/ -bench-out BENCH_baseline.json
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"cohort/internal/obs"
	"cohort/internal/stats"
)

// TrajectorySchema identifies the perf-trajectory document format appended
// to by -bench-out (the BENCH_*.json files tracked in the repository).
const TrajectorySchema = "cohort/bench-trajectory/v1"

// ReportSchema identifies the merged-report JSON format (-json).
const ReportSchema = "cohort/report/v1"

// Group is one (tool, config key) equivalence class of manifests.
type Group struct {
	Tool      string   `json:"tool"`
	ConfigKey string   `json:"config_key"`
	Runs      []RunRow `json:"runs"`
	// MetricsAgree reports whether every run in the group carries a
	// byte-identical metrics snapshot — the determinism contract.
	MetricsAgree bool `json:"metrics_agree"`
	// Attribution is the group's WCML latency decomposition when the runs
	// recorded one (cohort-bench -run attribution). Attribution is derived
	// from deterministic simulation results, so the first manifest's rows
	// stand for the whole group.
	Attribution []obs.AttributionRow `json:"attribution,omitempty"`
}

// RunRow summarizes one manifest.
type RunRow struct {
	Workers     int                `json:"workers"`
	Seed        int64              `json:"seed"`
	StartedAt   string             `json:"started_at"`
	WallSeconds float64            `json:"wall_seconds"`
	Engine      *stats.EngineStats `json:"engine,omitempty"`
	Metrics     int                `json:"metrics"`
}

// Report is the merged view of one manifest directory.
type Report struct {
	Schema string  `json:"schema"`
	Groups []Group `json:"groups"`
}

// TrajectoryEntry is one appended perf point: what ran and how long it took.
// NumCPU/GoMaxProcs record the host's parallel capacity (optional, absent in
// entries written before the fields existed) so that wall times are
// self-explaining — e.g. workers=8 slower than workers=1 on a 1-CPU host.
type TrajectoryEntry struct {
	Tool        string             `json:"tool"`
	ConfigKey   string             `json:"config_key"`
	Workers     int                `json:"workers"`
	NumCPU      int                `json:"num_cpu,omitempty"`
	GoMaxProcs  int                `json:"gomaxprocs,omitempty"`
	StartedAt   string             `json:"started_at"`
	WallSeconds float64            `json:"wall_seconds"`
	Engine      *stats.EngineStats `json:"engine,omitempty"`
}

// Trajectory is the append-only wall-time record (BENCH_*.json).
type Trajectory struct {
	Schema  string            `json:"schema"`
	Entries []TrajectoryEntry `json:"entries"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cohort-report:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cohort-report", flag.ContinueOnError)
	var (
		dir      = fs.String("dir", "", "directory of *.manifest.json files (required)")
		md       = fs.Bool("md", false, "emit a markdown report")
		asJSON   = fs.Bool("json", false, "emit the merged report as JSON instead of tables")
		check    = fs.Bool("check", false, "strict mode for CI: require at least one manifest and fail on any determinism mismatch")
		benchOut = fs.String("bench-out", "", "append every run's wall time to this perf-trajectory JSON file")
		fpOnly   = fs.Bool("fingerprints", false, "emit one 'tool config_key metrics_sha256' line per group and nothing else (for golden comparison in CI)")
		speedup  = fs.String("speedup", "", "compare two perf-trajectory files 'BASE.json,NEW.json': per (tool, config key) group, the best wall time in each and the speedup")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *speedup != "" {
		return runSpeedup(*speedup, stdout, *md)
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}

	ms, err := obs.LoadDir(*dir)
	if err != nil {
		return err
	}
	if *check && len(ms) == 0 {
		return fmt.Errorf("%s holds no manifests", *dir)
	}

	rep := merge(ms)

	if *fpOnly {
		// One line per (tool, config key) group: the config fingerprint plus a
		// hash of the canonical metrics snapshot. A perf rewrite must leave
		// these bytes unchanged — CI diffs the output against a golden file.
		for _, g := range rep.Groups {
			if !g.MetricsAgree {
				return fmt.Errorf("fingerprints: %s runs with config %s disagree on metrics",
					g.Tool, obs.ShortKey(g.ConfigKey))
			}
		}
		for _, g := range rep.Groups {
			sum := sha256.Sum256(metricsJSONFor(ms, g.Tool, g.ConfigKey))
			fmt.Fprintf(stdout, "%s %s %s\n", g.Tool, g.ConfigKey, hex.EncodeToString(sum[:]))
		}
		return nil
	}

	if *asJSON {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		render(stdout, rep, *md)
	}

	if *benchOut != "" {
		if err := appendTrajectory(*benchOut, ms); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cohort-report: appended %d run(s) to %s\n", len(ms), *benchOut)
	}

	if *check {
		for _, g := range rep.Groups {
			if !g.MetricsAgree {
				return fmt.Errorf("determinism violation: %s runs with config %s disagree on metrics",
					g.Tool, obs.ShortKey(g.ConfigKey))
			}
		}
	}
	return nil
}

// metricsJSONFor returns the canonical metrics snapshot bytes of the first
// manifest in the (tool, key) group; -fingerprints has already established
// that every member of the group agrees byte-for-byte.
func metricsJSONFor(ms []*obs.Manifest, tool, key string) []byte {
	for _, m := range ms {
		if m.Tool == tool && m.ConfigKey == key {
			return m.Metrics.JSON()
		}
	}
	return nil
}

// merge groups the manifests by (tool, config key) and cross-checks each
// group's metrics snapshots.
func merge(ms []*obs.Manifest) *Report {
	byKey := map[string][]*obs.Manifest{}
	var order []string
	for _, m := range ms {
		id := m.Tool + "\x00" + m.ConfigKey
		if _, seen := byKey[id]; !seen {
			order = append(order, id)
		}
		byKey[id] = append(byKey[id], m)
	}
	sort.Strings(order)

	rep := &Report{Schema: ReportSchema}
	for _, id := range order {
		group := byKey[id]
		sort.Slice(group, func(i, j int) bool {
			if group[i].Workers != group[j].Workers {
				return group[i].Workers < group[j].Workers
			}
			return group[i].StartedAt < group[j].StartedAt
		})
		g := Group{
			Tool:         group[0].Tool,
			ConfigKey:    group[0].ConfigKey,
			MetricsAgree: true,
			Attribution:  group[0].Attribution,
		}
		want := group[0].Metrics.JSON()
		for _, m := range group {
			if !bytes.Equal(m.Metrics.JSON(), want) {
				g.MetricsAgree = false
			}
			g.Runs = append(g.Runs, RunRow{
				Workers:     m.Workers,
				Seed:        m.Seed,
				StartedAt:   m.StartedAt,
				WallSeconds: m.WallSeconds,
				Engine:      m.Engine,
				Metrics:     len(m.Metrics),
			})
		}
		rep.Groups = append(rep.Groups, g)
	}
	return rep
}

// render lays the report out as one table per group plus a verdict line.
func render(w io.Writer, rep *Report, md bool) {
	if len(rep.Groups) == 0 {
		fmt.Fprintln(w, "no manifests found")
		return
	}
	for _, g := range rep.Groups {
		t := stats.NewTable(
			fmt.Sprintf("%s @ %s", g.Tool, obs.ShortKey(g.ConfigKey)),
			"workers", "seed", "started", "wall s", "engine jobs", "hits", "misses", "metrics")
		for _, r := range g.Runs {
			jobs, hits, misses := "-", "-", "-"
			if r.Engine != nil {
				jobs = fmt.Sprintf("%d", r.Engine.Jobs)
				hits = fmt.Sprintf("%d", r.Engine.CacheHits)
				misses = fmt.Sprintf("%d", r.Engine.CacheMisses)
			}
			t.AddRow(fmt.Sprintf("%d", r.Workers), fmt.Sprintf("%d", r.Seed), r.StartedAt,
				fmt.Sprintf("%.2f", r.WallSeconds), jobs, hits, misses, fmt.Sprintf("%d", r.Metrics))
		}
		if md {
			fmt.Fprintln(w, t.Markdown())
		} else {
			fmt.Fprintln(w, t.String())
		}
		verdict := "metrics agree across runs"
		if !g.MetricsAgree {
			verdict = "METRICS DISAGREE — determinism contract violated"
		}
		fmt.Fprintf(w, "%s\n\n", verdict)

		if len(g.Attribution) > 0 {
			at := stats.NewTable(
				fmt.Sprintf("%s @ %s — WCML attribution (cycles, share of total)", g.Tool, obs.ShortKey(g.ConfigKey)),
				"bench", "system", "core", "crit", "total", "hit", "arb", "timer", "xfer", "dram",
				"arb%", "timer%", "xfer%", "dram%")
			for _, r := range g.Attribution {
				crit := "nCr"
				if r.Critical {
					crit = "Cr"
				}
				at.AddRow(r.Benchmark, r.System, fmt.Sprintf("c%d", r.Core), crit,
					fmt.Sprintf("%d", r.TotalLatency), fmt.Sprintf("%d", r.HitCycles),
					fmt.Sprintf("%d", r.Arbitration), fmt.Sprintf("%d", r.TimerStall),
					fmt.Sprintf("%d", r.Transfer), fmt.Sprintf("%d", r.DRAM),
					pct(r.Arbitration, r.TotalLatency), pct(r.TimerStall, r.TotalLatency),
					pct(r.Transfer, r.TotalLatency), pct(r.DRAM, r.TotalLatency))
			}
			if md {
				fmt.Fprintln(w, at.Markdown())
			} else {
				fmt.Fprintln(w, at.String())
			}
			fmt.Fprintln(w)
		}
	}
}

// pct renders a latency component as its percentage of the total.
func pct(part, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}

// appendTrajectory appends one entry per manifest to the perf-trajectory
// file, creating it when absent. Exact duplicates (same tool, key, workers,
// start time) are dropped so re-running the report is idempotent.
func appendTrajectory(path string, ms []*obs.Manifest) error {
	traj := &Trajectory{Schema: TrajectorySchema}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, traj); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if traj.Schema != TrajectorySchema {
			return fmt.Errorf("%s: schema %q, want %q", path, traj.Schema, TrajectorySchema)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	seen := map[string]bool{}
	for _, e := range traj.Entries {
		seen[trajID(e)] = true
	}
	for _, m := range ms {
		e := TrajectoryEntry{
			Tool:        m.Tool,
			ConfigKey:   m.ConfigKey,
			Workers:     m.Workers,
			StartedAt:   m.StartedAt,
			WallSeconds: m.WallSeconds,
			Engine:      m.Engine,
		}
		if m.Host != nil {
			e.NumCPU = m.Host.NumCPU
			e.GoMaxProcs = m.Host.GoMaxProcs
		}
		if seen[trajID(e)] {
			continue
		}
		seen[trajID(e)] = true
		traj.Entries = append(traj.Entries, e)
	}
	sort.Slice(traj.Entries, func(i, j int) bool {
		a, b := traj.Entries[i], traj.Entries[j]
		if a.StartedAt != b.StartedAt {
			return a.StartedAt < b.StartedAt
		}
		if a.Tool != b.Tool {
			return a.Tool < b.Tool
		}
		if a.ConfigKey != b.ConfigKey {
			return a.ConfigKey < b.ConfigKey
		}
		return a.Workers < b.Workers
	})
	b, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadTrajectory reads and schema-checks one perf-trajectory file.
func loadTrajectory(path string) (*Trajectory, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	traj := &Trajectory{}
	if err := json.Unmarshal(b, traj); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if traj.Schema != TrajectorySchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, traj.Schema, TrajectorySchema)
	}
	return traj, nil
}

// runSpeedup renders the wall-time ratio between two perf-trajectory files:
// entries are grouped by (tool, config key), each group is reduced to its
// best (minimum) wall time per file — the trajectory holds runs at several
// worker counts, and the best run is what a perf change
// is judged by — and matching groups get a base/new speedup column. Groups
// present in only one file render with '-' so a config drift is visible
// rather than silently dropped.
func runSpeedup(arg string, w io.Writer, md bool) error {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		return fmt.Errorf("-speedup wants exactly two files 'BASE.json,NEW.json', got %d", len(paths))
	}
	base, err := loadTrajectory(strings.TrimSpace(paths[0]))
	if err != nil {
		return err
	}
	next, err := loadTrajectory(strings.TrimSpace(paths[1]))
	if err != nil {
		return err
	}
	best := func(t *Trajectory) (map[string]float64, []string) {
		m := map[string]float64{}
		var order []string
		for _, e := range t.Entries {
			id := e.Tool + "\x00" + e.ConfigKey
			if v, ok := m[id]; !ok || e.WallSeconds < v {
				if !ok {
					order = append(order, id)
				}
				m[id] = e.WallSeconds
			}
		}
		return m, order
	}
	baseBest, order := best(base)
	nextBest, nextOrder := best(next)
	for _, id := range nextOrder {
		if _, ok := baseBest[id]; !ok {
			order = append(order, id)
		}
	}
	if len(order) == 0 {
		return fmt.Errorf("-speedup: no entries in either trajectory")
	}
	t := stats.NewTable(
		fmt.Sprintf("speedup: %s -> %s (best wall time per config)", paths[0], paths[1]),
		"tool", "config", "base s", "new s", "speedup")
	for _, id := range order {
		tool, key, _ := strings.Cut(id, "\x00")
		baseS, newS, ratio := "-", "-", "-"
		b, okB := baseBest[id]
		n, okN := nextBest[id]
		if okB {
			baseS = fmt.Sprintf("%.2f", b)
		}
		if okN {
			newS = fmt.Sprintf("%.2f", n)
		}
		if okB && okN && n > 0 {
			ratio = fmt.Sprintf("%.2fx", b/n)
		}
		t.AddRow(tool, obs.ShortKey(key), baseS, newS, ratio)
	}
	if md {
		fmt.Fprintln(w, t.Markdown())
	} else {
		fmt.Fprintln(w, t.String())
	}
	return nil
}

func trajID(e TrajectoryEntry) string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%s", e.Tool, e.ConfigKey, e.Workers, e.StartedAt)
}
