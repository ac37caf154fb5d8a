package experiments

import (
	"encoding/hex"

	"cohort/internal/obs"
	"cohort/internal/trace"
)

// Observability. The process-wide memos make any metric probed inside a
// running cell scheduling-dependent (a cached cell skips the work a fresh
// cell performs, and racing cells split hits and misses differently run to
// run), so the experiment harness publishes only post-hoc: every runner
// folds deterministic summary values out of its finished result, in
// coordinator order, after the parallel fan-out has been reduced. Metric
// snapshots are therefore byte-identical for every Jobs value — the
// serial-equivalence suite asserts it. The memo counters themselves
// (MemoStats) are surfaced exclusively through run manifests, never through
// the registry.

// observeFigure publishes one finished figure: the shared figure/cell
// counters, any runner-specific gauges via publish, and a span on the
// experiments track timestamped by figure sequence number.
func (o *Options) observeFigure(name string, cells int, publish func(reg *obs.Registry, lbl obs.Label)) {
	var seq int64
	if o.Metrics != nil {
		ctr := o.Metrics.Counter("experiments_figures_total")
		ctr.Inc()
		seq = ctr.Value() - 1
		o.Metrics.Counter("experiments_cells_total").Add(int64(cells))
		if publish != nil {
			publish(o.Metrics, obs.L("figure", name))
		}
	}
	if o.Recorder != nil {
		// Timestamps are logical figure sequence numbers (0 without a
		// registry to sequence them), never wall clock.
		o.Recorder.NameProcess(obs.PidExperiments, "cohort experiments")
		o.Recorder.Complete(obs.PidExperiments, 0, name, "figure", seq, 1, nil)
	}
}

// Fingerprint returns the hex content fingerprint of a trace — the same
// digest the process-wide memos key on. Run manifests use it to tie results
// to exact workload content.
func Fingerprint(tr *trace.Trace) string {
	return hex.EncodeToString([]byte(traceFingerprint(tr)))
}

// TraceRefs generates the workload traces selected by the options and
// returns their names and content fingerprints for run manifests.
func TraceRefs(o Options) ([]obs.TraceRef, error) {
	profiles, err := o.profiles()
	if err != nil {
		return nil, err
	}
	refs := make([]obs.TraceRef, 0, len(profiles))
	for _, p := range profiles {
		refs = append(refs, obs.TraceRef{Name: p.Name, Fingerprint: Fingerprint(o.generate(p))})
	}
	return refs, nil
}
