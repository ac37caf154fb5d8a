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
//	cohort-report -dir results/ -fingerprints
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

	"cohort/internal/cliutil"
	"cohort/internal/obs"
	"cohort/internal/stats"
)

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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run merges one manifest directory into a report on stdout and returns the
// exit status: 0 on success, 2 for a bad flag, 1 for any other failure
// (an unreadable manifest, or a determinism violation under -check or
// -fingerprints).
func run(args []string, stdout, stderr io.Writer) int {
	return cliutil.Status("cohort-report", report(args, stdout, stderr), stderr)
}

func report(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cohort-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir    = fs.String("dir", "", "directory of *.manifest.json files (required)")
		md     = fs.Bool("md", false, "emit a markdown report")
		asJSON = fs.Bool("json", false, "emit the merged report as JSON instead of tables")
		check  = fs.Bool("check", false, "strict mode for CI: require at least one manifest and fail on any determinism mismatch")
		fpOnly = fs.Bool("fingerprints", false, "emit one 'tool config_key metrics_sha256' line per group and nothing else (for golden comparison in CI)")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return cliutil.Usagef("-dir is required")
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
