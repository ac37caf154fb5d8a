// Command cohortperf benchmarks the CoHoRT reproduction through its CLIs:
// cold, sequential invocations of cohort-bench and cohort-sim on four
// workloads, end-to-end metrics as medians over repetitions, and a traced
// in-process replay that measures each layer below the CLIs. See
// bench/README.md for the workloads, metrics and run protocol.
//
// Run it from the repository root through bench/run.sh, which builds it and
// the CLIs under test:
//
//	bash bench/run.sh --workload suite --seed 42 --seconds 15 --trace 0
//	bash bench/run.sh -seed 42 -out bench/results/seed-run1.json
//	bash bench/run.sh -compare BASE.json,NEW.json
//	bash bench/run.sh -update-digests
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"

	"cohort/internal/obs"
)

const (
	specPath    = "BENCHMARK.json"
	digestsPath = "bench/cohortperf/testdata/digests.json"
	// benchmarkReps is the minimum number of measured repetitions.
	benchmarkReps = 5
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cohortperf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cohortperf", flag.ContinueOnError)
	var (
		only     = fs.String("workload", "", "measure one workload and print the result as one JSON line (default: all workloads, round-robin)")
		seed     = fs.Uint64("seed", 42, "workload input seed")
		seconds  = fs.Float64("seconds", 0, "measure repetitions for at least this long")
		reps     = fs.Int("reps", benchmarkReps, "measure at least this many repetitions")
		traced   = fs.Int("trace", 0, "with -workload: 1 runs the traced replay and reports the per-layer metrics instead of the end-to-end ones")
		out      = fs.String("out", "", "write the full results to this JSON file")
		traceOut = fs.String("trace-out", ".bench_build/traces", "directory for the replay's Chrome traces, one per workload")
		compare  = fs.String("compare", "", "compare two results files, BASE.json,NEW.json, and exit non-zero on a regression")
		update   = fs.Bool("update-digests", false, "rewrite "+digestsPath+" from one run of each committed seed")
		child    = fs.String("child", "", "internal: run as the setup or replay child")
		kernels  = fs.Bool("kernels", false, "internal: the replay child also runs the layer kernels")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		paths := strings.Split(*compare, ",")
		if len(paths) != 2 {
			return errors.New("-compare wants BASE.json,NEW.json")
		}
		spec, err := loadSpec(specPath)
		if err != nil {
			return err
		}
		return compareFiles(spec, paths[0], paths[1], stdout)
	}
	if *child != "" {
		w, err := workloadByName(*only)
		if err != nil {
			return err
		}
		switch *child {
		case "setup":
			return w.setup(".", *seed)
		case "replay":
			return replayChild(w, *seed, *kernels)
		}
		return fmt.Errorf("unknown child mode %q", *child)
	}

	r, err := newRunner()
	if err != nil {
		return err
	}
	if *update {
		return r.updateDigests(digestsPath)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	ws := workloads
	if *only != "" {
		w, err := workloadByName(*only)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	committed, err := loadDigests(digestsPath)
	if err != nil {
		return err
	}
	// Every workload is replayed in the all-workloads run; a single-workload
	// run replays only when asked, since the replays and kernels add work the
	// end-to-end numbers do not need.
	traceDir := ""
	if *only == "" || *traced == 1 {
		if traceDir, err = filepath.Abs(*traceOut); err != nil {
			return err
		}
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
	}
	runs, err := r.measure(ws, *seed, *reps, *seconds, committed[fmt.Sprint(*seed)], traceDir)
	if err != nil {
		return err
	}
	res := newResults(*seed)
	for _, wr := range runs {
		res.Workloads[wr.w.name] = wr.result()
	}
	if *out != "" {
		if err := res.write(*out); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(res.Workloads) {
		for _, f := range res.Workloads[name].Failures {
			fmt.Fprintf(os.Stderr, "cohortperf: %s: %s\n", name, f)
		}
	}
	if *only == "" {
		res.print(stdout)
		return nil
	}
	metrics := spec.EndToEnd
	if *traced == 1 {
		metrics = spec.PerLayer
	}
	return res.Workloads[*only].printLine(stdout, metrics, *traced == 1)
}

// newRunner checks that the working directory is the repository root and
// prepares the directory the repetitions run in. The CLIs under test are the
// ones bench/run.sh built into .bench_build/bin.
func newRunner() (*runner, error) {
	if b, err := os.ReadFile("go.mod"); err != nil || !strings.HasPrefix(string(b), "module cohort\n") {
		return nil, errors.New("run from the repository root (no go.mod of module cohort here)")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(".bench_build/work")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(".bench_build/bin")
	if err != nil {
		return nil, err
	}
	return &runner{clk: obs.WallClock{}, self: self, binDir: bin, workDir: work}, nil
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// results is the full record of one benchmark run (-out).
type results struct {
	Schema    string                     `json:"schema"`
	Seed      uint64                     `json:"seed"`
	Host      map[string]string          `json:"host"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

const resultsSchema = "cohortperf/v1"

func newResults(seed uint64) *results {
	return &results{
		Schema: resultsSchema,
		Seed:   seed,
		Host: map[string]string{
			"goos": runtime.GOOS, "goarch": runtime.GOARCH, "go": runtime.Version(),
			"cpus": fmt.Sprint(runtime.NumCPU()),
		},
		Workloads: map[string]*workloadResult{},
	}
}

// workloadResult is one workload's record.
type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// HarnessOther keeps the spread of the paired differences behind
	// per_layer's harness_other_s median.
	HarnessOther *summary `json:"harness_other_s,omitempty"`
	// Mismatches lists replayed results missing from the CLI output.
	Mismatches []string `json:"replay_mismatches,omitempty"`
	// Digests holds each invocation's stdout sha256, per repetition with the
	// warm-up first, so two runs can be compared on a seed that has no
	// committed digest.
	Digests [][]string `json:"digests"`
}

// e2eUnits gives the unit of every end-to-end metric this program measures.
var e2eUnits = map[string]string{
	"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
	"sim_mcycles_per_s": "Mcycles/s", "pcc_bound_ratio": "x", "failed_frac": "ratio",
}

func (wr *workloadRun) result() *workloadResult {
	res := &workloadResult{
		Attempted: wr.check.attempted,
		Failed:    wr.check.failed,
		Failures:  wr.check.failures,
		EndToEnd:  map[string]summary{},
		Digests:   wr.digests,
	}
	for name, xs := range wr.samples {
		res.EndToEnd[name] = summarize(e2eUnits[name], xs)
	}
	// Failures are counted over every invocation, so failed_frac is one
	// number rather than a per-repetition sample.
	res.EndToEnd["failed_frac"] = summarize(e2eUnits["failed_frac"], []float64{wr.check.failedFrac()})
	if len(wr.replays) > 0 {
		res.PerLayer = map[string]float64{}
		layer := map[string][]float64{}
		// harness_other_s is a repetition's wall time less the on-path spans
		// of the replay run right after it: CLI start-up, flag parsing, memo
		// keys and bookkeeping, rendering, and any cost difference between the
		// CLI's default oracle and the library default the replay uses.
		var other []float64
		for i, rr := range wr.replays {
			for k, v := range rr.Layer {
				layer[k] = append(layer[k], v)
			}
			other = append(other, wr.samples["wall_s"][i]-rr.OnPathS)
			for _, m := range rr.Mismatches {
				if !slices.Contains(res.Mismatches, m) {
					res.Mismatches = append(res.Mismatches, m)
				}
			}
		}
		for k, vs := range layer {
			res.PerLayer[k] = summarize("", vs).Median
		}
		h := summarize("s", other)
		res.HarnessOther = &h
		res.PerLayer["harness_other_s"] = h.Median
	}
	return res
}

func (w *workloadResult) correct() bool { return w.Failed == 0 && len(w.Mismatches) == 0 }

// printLine prints a single-workload run's result: one JSON object with the named
// metrics, the end-to-end ones as medians.
func (w *workloadResult) printLine(out io.Writer, metrics []metricSpec, perLayer bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.correct(), w.Attempted, w.Failed, map[string]value{}}
	for _, m := range metrics {
		var v float64
		var ok bool
		if perLayer {
			v, ok = w.PerLayer[m.Name]
		} else {
			var s summary
			s, ok = w.EndToEnd[m.Name]
			v = s.Median
		}
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func (r *results) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print renders the end-to-end medians and quartiles as a table.
func (r *results) print(out io.Writer) {
	fmt.Fprintf(out, "%-14s %-18s %12s %12s %12s %3s\n", "workload", "metric", "median", "q1", "q3", "n")
	for _, name := range sortedKeys(r.Workloads) {
		w := r.Workloads[name]
		for _, m := range sortedKeys(w.EndToEnd) {
			s := w.EndToEnd[m]
			fmt.Fprintf(out, "%-14s %-18s %12.5g %12.5g %12.5g %3d\n", name, m, s.Median, s.Q1, s.Q3, s.N)
		}
		if w.PerLayer != nil {
			fmt.Fprintf(out, "%-14s %-18s %12.5g\n", name, "harness_other_s", w.PerLayer["harness_other_s"])
		}
		fmt.Fprintf(out, "%-14s correct=%v attempted=%d failed=%d\n", name, w.correct(), w.Attempted, w.Failed)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
