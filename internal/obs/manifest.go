package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cohort/internal/stats"
)

// ManifestSchema identifies the manifest document format. cohort-report
// refuses documents with any other schema string.
const ManifestSchema = "cohort/run-manifest/v1"

// Clock abstracts wall-clock time so that it enters the repository in
// exactly one place. Production code uses WallClock; tests inject
// ManualClock so manifests are byte-reproducible.
type Clock interface {
	Now() time.Time
}

// WallClock reads the real time. This is the only wall-clock read in the
// repository; everything outside run manifests is simulated-cycle or
// logical time (enforced by cohort-vet's walltime analyzer).
type WallClock struct{}

// Now returns the current wall-clock time.
func (WallClock) Now() time.Time {
	//cohort:allow walltime: sole sanctioned wall-clock read; used only for run-manifest timestamps, never simulator state
	return time.Now()
}

// ManualClock is a fixed-time Clock for tests and reproducible manifests.
type ManualClock struct{ T time.Time }

// Now returns the fixed time.
func (m ManualClock) Now() time.Time { return m.T }

// TraceRef names one input trace and its content fingerprint.
type TraceRef struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
}

// HostInfo records the execution host's parallel capacity. Wall times are
// only comparable with this context: a workers=8 run on a 1-CPU container
// is legitimately slower than workers=1, not a regression. Optional in the
// schema — manifests written before it existed still parse and validate.
type HostInfo struct {
	NumCPU     int `json:"num_cpu,omitempty"`
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
}

// CaptureHost reads the current process's host capacity.
func CaptureHost() *HostInfo {
	return &HostInfo{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}
}

// AttributionRow is one core's miss-latency decomposition under one system
// on one benchmark (stats.Attribution, DESIGN.md §10). The components plus
// the hit cycles sum exactly to the core's total memory latency — Validate
// enforces the identity, so a manifest can never carry an inconsistent
// decomposition.
type AttributionRow struct {
	Benchmark    string `json:"benchmark"`
	System       string `json:"system"`
	Core         int    `json:"core"`
	Critical     bool   `json:"critical"`
	Misses       int64  `json:"misses"`
	Arbitration  int64  `json:"arbitration_cycles"`
	TimerStall   int64  `json:"timer_stall_cycles"`
	Transfer     int64  `json:"transfer_cycles"`
	DRAM         int64  `json:"dram_cycles"`
	HitCycles    int64  `json:"hit_cycles"`
	TotalLatency int64  `json:"total_latency"`
}

// Manifest describes one CLI invocation: what ran (tool, args, config
// fingerprint, input traces, seed, workers), when and
// for how long (the only wall-clock fields in the repository), and what it
// measured (engine counters, the full metrics snapshot, and optionally the
// per-core WCML latency attribution). Manifests are the unit of comparison
// for cmd/cohort-report. Note -fingerprints digests only the Metrics
// snapshot, so the attribution rows extend manifests without disturbing
// committed fingerprints.
type Manifest struct {
	Schema      string             `json:"schema"`
	Tool        string             `json:"tool"`
	Args        []string           `json:"args,omitempty"`
	ConfigKey   string             `json:"config_key"`
	Traces      []TraceRef         `json:"traces,omitempty"`
	Seed        int64              `json:"seed"`
	Workers     int                `json:"workers"`
	StartedAt   string             `json:"started_at"`
	WallSeconds float64            `json:"wall_seconds"`
	Host        *HostInfo          `json:"host,omitempty"`
	Engine      *stats.EngineStats `json:"engine,omitempty"`
	Metrics     Snapshot           `json:"metrics,omitempty"`
	Attribution []AttributionRow   `json:"attribution,omitempty"`
	Notes       string             `json:"notes,omitempty"`
}

// NewManifest returns a manifest stamped with the schema, tool name and
// start time read from clk. The start time keeps nanosecond precision:
// Finish subtracts it from the finish time, and sub-second runs would
// otherwise report the clock's second-fraction as their wall time.
// time.Parse with the RFC3339 layout accepts the fractional seconds, so
// manifests written at either precision validate and compare identically.
func NewManifest(tool string, clk Clock) *Manifest {
	return &Manifest{
		Schema:    ManifestSchema,
		Tool:      tool,
		StartedAt: clk.Now().UTC().Format(time.RFC3339Nano),
		Host:      CaptureHost(),
	}
}

// Finish records the elapsed wall time against the manifest's start time.
func (m *Manifest) Finish(clk Clock) {
	start, err := time.Parse(time.RFC3339, m.StartedAt)
	if err != nil {
		return
	}
	m.WallSeconds = clk.Now().UTC().Sub(start).Seconds()
	if m.WallSeconds < 0 {
		m.WallSeconds = 0
	}
}

func isHex(s string) bool {
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
		default:
			return false
		}
	}
	return true
}

// Validate checks the manifest against the schema contract; cohort-report
// -check fails CI on the first violation.
func (m *Manifest) Validate() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("manifest: schema %q, want %q", m.Schema, ManifestSchema)
	}
	if m.Tool == "" {
		return fmt.Errorf("manifest: empty tool")
	}
	if m.ConfigKey == "" || !isHex(m.ConfigKey) {
		return fmt.Errorf("manifest: config_key %q is not lowercase hex", m.ConfigKey)
	}
	if m.Workers < 1 {
		return fmt.Errorf("manifest: workers %d < 1", m.Workers)
	}
	if _, err := time.Parse(time.RFC3339, m.StartedAt); err != nil {
		return fmt.Errorf("manifest: started_at: %v", err)
	}
	if m.WallSeconds < 0 {
		return fmt.Errorf("manifest: negative wall_seconds %g", m.WallSeconds)
	}
	if m.Host != nil && (m.Host.NumCPU < 0 || m.Host.GoMaxProcs < 0) {
		return fmt.Errorf("manifest: negative host capacity %+v", *m.Host)
	}
	for _, tr := range m.Traces {
		if tr.Name == "" || tr.Fingerprint == "" || !isHex(tr.Fingerprint) {
			return fmt.Errorf("manifest: bad trace ref %+v", tr)
		}
	}
	for _, met := range m.Metrics {
		switch met.Kind {
		case KindCounter, KindGauge, KindFloat, KindHistogram:
		default:
			return fmt.Errorf("manifest: metric %q has unknown kind %q", met.Name, met.Kind)
		}
		if met.Name == "" {
			return fmt.Errorf("manifest: metric with empty name")
		}
	}
	for _, a := range m.Attribution {
		if a.Benchmark == "" || a.System == "" {
			return fmt.Errorf("manifest: attribution row missing benchmark/system: %+v", a)
		}
		if a.Core < 0 || a.Misses < 0 || a.Arbitration < 0 || a.TimerStall < 0 ||
			a.Transfer < 0 || a.DRAM < 0 || a.HitCycles < 0 {
			return fmt.Errorf("manifest: negative attribution component: %+v", a)
		}
		if sum := a.Arbitration + a.TimerStall + a.Transfer + a.DRAM + a.HitCycles; sum != a.TotalLatency {
			return fmt.Errorf("manifest: attribution of %s/%s core %d does not decompose: components sum to %d, total %d",
				a.Benchmark, a.System, a.Core, sum, a.TotalLatency)
		}
	}
	return nil
}

// JSON renders the manifest as deterministic, indented JSON (trailing
// newline included).
func (m *Manifest) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FileName returns the manifest's deterministic file name:
// <tool>-<key12>-j<workers>.manifest.json.
func (m *Manifest) FileName() string {
	key := m.ConfigKey
	if len(key) > 12 {
		key = key[:12]
	}
	if key == "" {
		key = "run"
	}
	return fmt.Sprintf("%s-%s-j%d.manifest.json", m.Tool, key, m.Workers)
}

// Write validates the manifest and writes it into dir (created if needed)
// under its deterministic file name, returning the full path.
func (m *Manifest) Write(dir string) (string, error) {
	if err := m.Validate(); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := m.JSON()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, m.FileName())
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadManifest parses one manifest file and validates it.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &m, nil
}

// LoadDir reads every *.manifest.json in dir in sorted filename order.
func LoadDir(dir string) ([]*Manifest, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.manifest.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var ms []*Manifest
	for _, name := range names {
		m, err := ReadManifest(name)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// ShortKey abbreviates a hex config key for display.
func ShortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return strings.TrimSpace(key)
}
