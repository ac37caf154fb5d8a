package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"cohort/internal/obs"
)

// childTimeout bounds every child process. An invocation that runs past it
// is killed and counted as failed. It sits well above the slowest
// invocation (about 2 s) and well below the 180 s a whole run may take.
const childTimeout = 60 * time.Second

// runner starts the benchmark's child processes one at a time: a closed
// loop with a single client.
type runner struct {
	clk     obs.Clock
	self    string // this executable, re-executed as the setup and replay child
	binDir  string // holds the cohort-bench and cohort-sim under test
	workDir string // parent of the per-repetition directories
}

// childResult is one finished child process.
type childResult struct {
	err    error
	wall   float64 // seconds, through the injected clock
	cpu    float64 // user+system seconds, from the child's rusage
	rssMB  float64 // peak resident set, MiB, from the child's rusage
	stdout []byte
}

// run executes one child in dir with a cold environment: dir is also its
// HOME, TMPDIR and XDG_CACHE_HOME, so no child sees anything an earlier one
// left behind.
func (r *runner) run(dir, path string, args ...string) childResult {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.Dir = dir
	cmd.Env = []string{"PATH=" + os.Getenv("PATH"), "HOME=" + dir, "TMPDIR=" + dir, "XDG_CACHE_HOME=" + dir}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := r.clk.Now()
	err := cmd.Run()
	res := childResult{wall: r.clk.Now().Sub(start).Seconds(), stdout: stdout.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		res.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	switch {
	case ctx.Err() != nil:
		res.err = fmt.Errorf("%s: killed after the %v timeout", filepath.Base(path), childTimeout)
	case err != nil:
		res.err = fmt.Errorf("%s: %v: %s", filepath.Base(path), err, lastLine(stderr.Bytes()))
	}
	return res
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// repetition is one cold run of a workload: the setup child, then each CLI
// invocation in order.
type repetition struct {
	setupS float64
	inv    []childResult
}

func (r *runner) repetition(w *workload, seed uint64, round int) (repetition, error) {
	dir := filepath.Join(r.workDir, fmt.Sprintf("%s-%d", w.name, round))
	if err := os.RemoveAll(dir); err != nil {
		return repetition{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return repetition{}, err
	}
	defer os.RemoveAll(dir)
	setup := r.run(dir, r.self, "-child", "setup", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10))
	if setup.err != nil {
		return repetition{}, fmt.Errorf("setup: %w", setup.err)
	}
	rep := repetition{setupS: setup.wall}
	for _, inv := range w.invocations(seed) {
		rep.inv = append(rep.inv, r.run(dir, filepath.Join(r.binDir, inv.tool), inv.args...))
	}
	return rep, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checker counts a workload's attempted and failed invocations. want holds
// each invocation's expected stdout digest; an empty entry is filled from the
// first repetition, so on a seed with no committed digest every later
// repetition must agree with the first.
type checker struct {
	invs      []invocation
	want      []string
	attempted int
	failed    int
	failures  []string
}

func newChecker(invs []invocation, want []string) *checker {
	c := &checker{invs: invs, want: make([]string, len(invs))}
	copy(c.want, want)
	return c
}

// check accounts one invocation: it fails when the process failed, when its
// stdout digest differs from the expected one, or when its output breaks a
// workload check (checkOutput).
func (c *checker) check(round, i int, res childResult) {
	c.attempted++
	err := res.err
	if err == nil {
		d := digest(res.stdout)
		switch {
		case c.want[i] == "":
			c.want[i] = d
		case d != c.want[i]:
			err = fmt.Errorf("stdout digest %.12s, want %.12s", d, c.want[i])
		}
	}
	if err == nil {
		err = checkOutput(c.invs[i], res.stdout)
	}
	if err != nil {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf("round %d, invocation %d: %v", round, i, err))
	}
}

func (c *checker) failedFrac() float64 {
	if c.attempted == 0 {
		return 1
	}
	return float64(c.failed) / float64(c.attempted)
}

// workloadRun accumulates one workload's repetitions.
type workloadRun struct {
	w       *workload
	check   *checker
	samples map[string][]float64 // end-to-end metric → one sample per measured repetition
	digests [][]string           // per repetition (warm-up first), per invocation
	first   [][]byte             // stdout of the first repetition, the replay's reference
	replays []*replayResult      // one per measured repetition, when traced
}

func newWorkloadRun(w *workload, seed uint64, want []string) *workloadRun {
	return &workloadRun{w: w, check: newChecker(w.invocations(seed), want), samples: map[string][]float64{}}
}

func (wr *workloadRun) record(round int, rep repetition, measured bool) {
	ds := make([]string, len(rep.inv))
	var wall, cpu, rss float64
	var cycles int64
	for i, res := range rep.inv {
		wr.check.check(round, i, res)
		ds[i] = digest(res.stdout)
		wall += res.wall
		cpu += res.cpu
		rss = max(rss, res.rssMB)
		cycles += simCycles(res.stdout)
	}
	wr.digests = append(wr.digests, ds)
	if wr.first == nil {
		for _, res := range rep.inv {
			wr.first = append(wr.first, res.stdout)
		}
	}
	if !measured {
		return
	}
	add := func(name string, v float64) { wr.samples[name] = append(wr.samples[name], v) }
	add("wall_s", wall)
	add("cpu_s", cpu)
	add("setup_s", rep.setupS)
	add("peak_rss_mb", rss)
	if wr.w.sims != nil && wall > 0 {
		add("sim_mcycles_per_s", float64(cycles)/1e6/wall)
	}
	if wr.w.sims == nil {
		if ratio := pccBoundRatio(rep.inv[0].stdout); ratio > 0 {
			add("pcc_bound_ratio", ratio)
		}
	}
}

// measure runs one discarded warm-up round and then measured rounds until at
// least minReps rounds are done and seconds have passed. Each round runs
// every workload once, in order, so host drift hits all of them alike. The
// warm-up round still counts toward correctness: it is each workload's first
// repetition.
//
// When traced, every measured repetition is followed by a replay of the same
// workload, so each harness_other_s sample pairs a repetition with a replay
// run moments later under the same host load. The first replay also runs
// the layer kernels and writes the Chrome trace into traceDir.
func (r *runner) measure(ws []*workload, seed uint64, minReps int, seconds float64, want map[string][]string, traceDir string) ([]*workloadRun, error) {
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = newWorkloadRun(w, seed, want[w.name])
	}
	round := func(n int, measured bool) error {
		for _, wr := range runs {
			rep, err := r.repetition(wr.w, seed, n)
			if err != nil {
				return fmt.Errorf("%s: %w", wr.w.name, err)
			}
			wr.record(n, rep, measured)
			if measured && traceDir != "" {
				traceOut := ""
				if len(wr.replays) == 0 {
					traceOut = filepath.Join(traceDir, wr.w.name+".trace.json")
				}
				rr, err := r.replay(wr, seed, traceOut)
				if err != nil {
					return fmt.Errorf("%s: %w", wr.w.name, err)
				}
				wr.replays = append(wr.replays, rr)
			}
		}
		return nil
	}
	if err := round(0, false); err != nil {
		return nil, err
	}
	start := r.clk.Now()
	for n := 1; n <= minReps || r.clk.Now().Sub(start).Seconds() < seconds; n++ {
		if err := round(n, true); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// replay runs the traced replay child for one measured workload. The child
// compares its replay against the first repetition's stdout, which it reads
// from its working directory. With a traceOut path, the child also runs the
// layer kernels and its Chrome trace is copied there.
func (r *runner) replay(wr *workloadRun, seed uint64, traceOut string) (*replayResult, error) {
	dir := filepath.Join(r.workDir, wr.w.name+"-replay")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for i, out := range wr.first {
		if err := os.WriteFile(filepath.Join(dir, refName(i)), out, 0o644); err != nil {
			return nil, err
		}
	}
	args := []string{"-child", "replay", "-workload", wr.w.name, "-seed", strconv.FormatUint(seed, 10)}
	if traceOut != "" {
		args = append(args, "-kernels")
	}
	res := r.run(dir, r.self, args...)
	if res.err != nil {
		return nil, fmt.Errorf("replay: %w", res.err)
	}
	if traceOut != "" {
		chrome, err := os.ReadFile(filepath.Join(dir, replayTraceName))
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(traceOut, chrome, 0o644); err != nil {
			return nil, err
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, replayResultName))
	if err != nil {
		return nil, err
	}
	var rr replayResult
	if err := json.Unmarshal(b, &rr); err != nil {
		return nil, fmt.Errorf("replay result: %w", err)
	}
	return &rr, nil
}

// Files the replay child writes in its working directory.
const (
	replayResultName = "replay.json"
	replayTraceName  = "trace.json"
)

func refName(i int) string { return fmt.Sprintf("ref-%d.out", i) }

// digestFile holds the committed stdout digests: seed → workload → one
// sha256 per invocation.
type digestFile map[string]map[string][]string

func loadDigests(path string) (digestFile, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return digestFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var d digestFile
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// digestSeeds are the seeds whose digests are committed.
var digestSeeds = []uint64{42, 7777}

// updateDigests runs one repetition of every workload per committed seed and
// rewrites the digest file. Nothing is written unless every invocation
// passes its process and output checks.
func (r *runner) updateDigests(path string) error {
	d := digestFile{}
	for _, seed := range digestSeeds {
		runs, err := r.measure(workloads, seed, 0, 0, nil, "")
		if err != nil {
			return err
		}
		key := strconv.FormatUint(seed, 10)
		d[key] = map[string][]string{}
		for _, wr := range runs {
			if wr.check.failed > 0 {
				return fmt.Errorf("seed %d, %s: %s", seed, wr.w.name, wr.check.failures[0])
			}
			d[key][wr.w.name] = wr.check.want
		}
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
