package opt

import (
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cohort/internal/config"
	"cohort/internal/parallel"
	"cohort/internal/trace"
)

// Property tests for the invariants parallel evaluation must not disturb:
// the genome-level memo key is a pure function of the timer vector, job
// seeding is a pure function of (base, index) (so no fan-out can perturb RNG
// streams), and the evaluator's evaluations, counters and replay count are a
// pure function of the genome sequence.

func TestGenomeKeyPureFunction(t *testing.T) {
	prop := func(raw []int16) bool {
		timers := make([]config.Timer, len(raw))
		for i, v := range raw {
			timers[i] = config.Timer(v)
		}
		clone := append([]config.Timer(nil), timers...)
		if genomeKey(timers) != genomeKey(clone) {
			return false
		}
		if len(timers) > 0 {
			mutated := append([]config.Timer(nil), timers...)
			mutated[len(mutated)/2]++
			if genomeKey(mutated) == genomeKey(timers) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// Vector length is part of the key: a vector must never collide with its own
// prefix (the classic concatenation ambiguity).
func TestGenomeKeyLengthDomainSeparated(t *testing.T) {
	v := []config.Timer{3, 5, 9}
	if genomeKey(v) == genomeKey(v[:2]) {
		t.Fatal("genome key collides with its prefix")
	}
}

func TestJobSeedIndexPure(t *testing.T) {
	prop := func(base uint64, index uint16) bool {
		return parallel.JobSeed(base, int(index)) == parallel.JobSeed(base, int(index))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
	// No collisions across a realistic index range for a fixed base: a
	// collision would make two jobs share an RNG stream.
	seen := make(map[uint64]int, 1<<14)
	for i := 0; i < 1<<14; i++ {
		s := parallel.JobSeed(42, i)
		if j, ok := seen[s]; ok {
			t.Fatalf("JobSeed(42, %d) == JobSeed(42, %d)", i, j)
		}
		seen[s] = i
	}
}

// TestEvaluatorCoreMemoDeterministic drives identical genome sequences
// through cold evaluators at every worker count and asserts the observable
// state — evaluations returned, genome-cache counters, computed and replay
// counts — is identical everywhere and matches the memo-free reference.
func TestEvaluatorCoreMemoDeterministic(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, false, true})
	// Three batches with deliberate overlap (cross-batch memo hits) and
	// shared genes across genomes (regime-set hits).
	sequences := [][][]config.Timer{
		{{1, 1, 1}, {5, 9, 13}, {5, 9, 13}, {1, 9, 13}},
		{{5, 9, 13}, {7, 9, 2}},
		{{1, 1, 1}, {7, 1, 2}, {4000, 17, 23}},
	}
	type snapshot struct {
		evals              [][]Evaluation
		computed, replays  int
		jobs, hits, misses int64
	}
	run := func(workers int) snapshot {
		ResetCurveCache()
		e := newEvaluator(p, workers)
		var evals [][]Evaluation
		for _, seq := range sequences {
			evals = append(evals, e.batch(seq))
		}
		st := e.engineStats()
		return snapshot{evals, e.computed, e.replays, st.Jobs, st.CacheHits, st.CacheMisses}
	}
	ref := run(1)
	for _, batch := range ref.evals {
		for _, ev := range batch {
			if want := scalarEvaluate(p, ev.Timers); !reflect.DeepEqual(ev, want) {
				t.Fatalf("timers %v: evaluation differs from the scalar reference", ev.Timers)
			}
		}
	}
	if ref.replays == 0 || ref.hits == 0 {
		t.Fatalf("reference run exercised neither replays nor memo hits: %+v", ref)
	}
	for _, workers := range []int{4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers %d: evaluator state differs from workers 1", workers)
		}
	}
}

// TestCurveKeyPinned pins the regime-set key of fixed streams on the paper
// platform, so a change to the shared access encoding (trace.HashStream)
// cannot silently move the optimizer's cache keys. The long stream spans
// two flushes of the encoder's buffer.
func TestCurveKeyPinned(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50, DRAM: 100}
	geom := config.CacheGeometry{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 1}
	long := make(trace.Stream, 150)
	for i := range long {
		long[i] = trace.Access{Addr: uint64(i) * 0x9E3779B97F4A7C15, Kind: trace.Kind(i % 2), Gap: int64(i * i)}
	}
	for _, c := range []struct {
		name string
		s    trace.Stream
		want string
	}{
		{"long", long, "254eadc84d89820237361fa30567120461bfbbd18737376fbb9812847804b97e"},
		{"empty", nil, "c998fd9dcfe4a95728b61501a8a5c80ca7b7cd7b606605b8440b4a8faccae687"},
	} {
		if got := hex.EncodeToString([]byte(curveKey(c.s, geom, lat))); got != c.want {
			t.Errorf("%s stream: curveKey %s, want %s", c.name, got, c.want)
		}
	}
}
