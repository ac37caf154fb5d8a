package main

import (
	"cohort/internal/experiments"
	"cohort/internal/stats"
)

// suiteRunner is one experiment runner of `cohort-bench -run all`; run
// returns the texts the CLI prints for it.
type suiteRunner struct {
	name string
	run  func(o experiments.Options) ([]string, error)
}

// suiteRunners lists the runners in cohort-bench's output order, with the
// arguments it passes at its default flags (-bench fft).
var suiteRunners = []suiteRunner{
	{"table1", func(experiments.Options) ([]string, error) { return []string{experiments.Table1().String()}, nil }},
	{"fig5a", func(o experiments.Options) ([]string, error) { return summarized(experiments.Fig5(o, "all-cr")) }},
	{"fig5b", func(o experiments.Options) ([]string, error) { return summarized(experiments.Fig5(o, "2cr-2ncr")) }},
	{"fig5c", func(o experiments.Options) ([]string, error) { return summarized(experiments.Fig5(o, "1cr-3ncr")) }},
	{"fig6a", func(o experiments.Options) ([]string, error) { return summarized(experiments.Fig6(o, "all-cr")) }},
	{"fig6b", func(o experiments.Options) ([]string, error) { return summarized(experiments.Fig6(o, "2cr-2ncr")) }},
	{"fig6c", func(o experiments.Options) ([]string, error) { return summarized(experiments.Fig6(o, "1cr-3ncr")) }},
	{"fig7", func(o experiments.Options) ([]string, error) {
		r, err := experiments.Fig7(o, "fft", 1.5, 1.8)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, t := range r.Render() {
			out = append(out, t.String())
		}
		return append(out, r.Summary()), nil
	}},
	{"table2", func(o experiments.Options) ([]string, error) { return rendered(experiments.Table2(o, "fft")) }},
	{"nonperfect", func(o experiments.Options) ([]string, error) { return summarized(experiments.NonPerfect(o)) }},
	{"attribution", func(o experiments.Options) ([]string, error) { return summarized(experiments.Attribution(o, "all-cr")) }},
	{"ablation-arbiter", func(o experiments.Options) ([]string, error) { return rendered(experiments.AblationArbiter(o)) }},
	{"ablation-transfer", func(o experiments.Options) ([]string, error) { return rendered(experiments.AblationTransfer(o)) }},
	{"ablation-timer", func(o experiments.Options) ([]string, error) { return rendered(experiments.AblationTimer(o, nil)) }},
	{"ablation-snoop", func(o experiments.Options) ([]string, error) { return rendered(experiments.AblationSnoop(o)) }},
	{"ablation-l1ways", func(o experiments.Options) ([]string, error) {
		return rendered(experiments.AblationL1Ways(o, 100, nil))
	}},
	{"ablation-nonblocking", func(o experiments.Options) ([]string, error) { return rendered(experiments.AblationNonBlocking(o)) }},
	{"ablation-optimizer", func(o experiments.Options) ([]string, error) { return rendered(experiments.AblationOptimizer(o)) }},
	{"scalability", func(o experiments.Options) ([]string, error) {
		return rendered(experiments.ExtensionScalability(o, "fft", 50, nil))
	}},
}

func rendered[R interface{ Render() *stats.Table }](r R, err error) ([]string, error) {
	if err != nil {
		return nil, err
	}
	return []string{r.Render().String()}, nil
}

func summarized[R interface {
	Render() *stats.Table
	Summary() string
}](r R, err error) ([]string, error) {
	if err != nil {
		return nil, err
	}
	return []string{r.Render().String(), r.Summary()}, nil
}
