package opt

import (
	"fmt"
	"math"

	"cohort/internal/config"
	"cohort/internal/trace"
)

// HCConfig tunes the hill-climbing optimizer.
type HCConfig struct {
	// Restarts is the number of random restarts.
	Restarts int
	// MaxSteps caps the improvement steps per restart.
	MaxSteps int
	// Seed makes runs deterministic.
	Seed uint64
	// Workers caps the evaluation worker pool: 1 forces the serial path,
	// anything below 1 selects runtime.NumCPU(). The Result is byte-identical
	// for every value.
	Workers int
}

// DefaultHC returns the parameters used by the optimizer ablation.
func DefaultHC(seed uint64) HCConfig {
	return HCConfig{Restarts: 6, MaxSteps: 80, Seed: seed}
}

// HillClimb is an alternative optimization engine: random-restart steepest-
// descent coordinate search with multiplicative steps over the same Θ space,
// objective and constraint handling as the GA. The paper notes the engine
// is pluggable ("the optimization algorithm (GA in our case)", §V);
// providing a second engine validates that the framework — the
// analysis-oracle loop of Fig. 2a — is algorithm-agnostic, and the
// optimizer ablation quantifies the difference.
//
// Each step breeds the full gene × factor neighborhood of the current point,
// evaluates it as one parallel batch, and moves to the best improving
// neighbor (ties broken by lowest neighbor index). Steepest descent makes
// the step a pure function of the current point — unlike first-improvement
// descent, whose trajectory depends on evaluation order — so the Result is
// byte-identical for every HCConfig.Workers value.
//
//cohort:hotpath determinism
func HillClimb(p *Problem, hc HCConfig) (*Result, error) {
	res, _, err := hillClimb(p, hc)
	return res, err
}

// hillClimb is HillClimb that also returns its evaluator (nil when there are no
// timed cores), so tests can audit every evaluation the run computed.
func hillClimb(p *Problem, hc HCConfig) (*Result, *evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if hc.Restarts < 1 || hc.MaxSteps < 1 {
		return nil, nil, fmt.Errorf("opt: degenerate HC config %+v", hc)
	}
	nGenes := p.numGenes()
	res := &Result{}
	if nGenes == 0 {
		timers := p.Timers(nil)
		res.Timers = timers
		res.Eval = p.Evaluate(timers)
		res.Evaluations = 1
		return res, nil, nil
	}
	oracle := newEvaluator(p, hc.Workers)
	res.ThetaIS = thetaIS(p, oracle.sets, oracle.plans, hc.Workers)

	rng := trace.NewRNG(hc.Seed ^ 0x6863) // "hc"
	clamp := func(g int, v config.Timer) config.Timer {
		if v < 1 {
			return 1
		}
		if v > res.ThetaIS[g] {
			return res.ThetaIS[g]
		}
		return v
	}
	evalOne := func(genes []config.Timer) (Evaluation, float64) {
		ev := oracle.batch([][]config.Timer{genes})[0]
		return ev, fitness(&ev)
	}

	var bestGenes []config.Timer
	var bestEval Evaluation
	bestFit := math.Inf(1)
	// Multiplicative step factors tried per coordinate, best-of sweep.
	factors := []float64{0.25, 0.5, 0.8, 1.25, 2, 4}
	for r := 0; r < hc.Restarts; r++ {
		genes := make([]config.Timer, nGenes)
		for g := range genes {
			switch r {
			case 0:
				genes[g] = 1
			case 1:
				genes[g] = res.ThetaIS[g]
			default:
				u := rng.Float64()
				genes[g] = clamp(g, config.Timer(math.Exp(u*math.Log(float64(res.ThetaIS[g])))))
			}
		}
		cur, curFit := evalOne(genes)
		for step := 0; step < hc.MaxSteps; step++ {
			// The whole gene × factor neighborhood of the current point, as
			// one batch.
			neighbors := make([][]config.Timer, 0, nGenes*len(factors))
			for g := 0; g < nGenes; g++ {
				for _, f := range factors {
					nv := clamp(g, config.Timer(float64(genes[g])*f))
					if nv == genes[g] {
						continue
					}
					cand := append([]config.Timer(nil), genes...)
					cand[g] = nv
					neighbors = append(neighbors, cand)
				}
			}
			if len(neighbors) == 0 {
				break
			}
			evs := oracle.batch(neighbors)
			bestN := -1
			bestNFit := curFit
			for i := range evs {
				if fit := fitness(&evs[i]); fit < bestNFit {
					bestN, bestNFit = i, fit
				}
			}
			if bestN == -1 {
				break
			}
			genes, cur, curFit = neighbors[bestN], evs[bestN], bestNFit
		}
		res.BestHistory = append(res.BestHistory, curFit)
		if curFit < bestFit {
			bestFit, bestGenes, bestEval = curFit, genes, cur
		}
	}
	res.Timers = p.Timers(bestGenes)
	res.Eval = bestEval
	res.Evaluations = oracle.computed
	res.Engine = oracle.engineStats()
	return res, oracle, nil
}
