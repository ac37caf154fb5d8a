package parallel

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"cohort/internal/trace"
)

// TestMapIndexOrder checks that results land in submission order for a
// spread of worker counts, including the inline serial path.
func TestMapIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			got := Map(workers, n, func(i int) int { return i * i })
			if len(got) != n {
				t.Fatalf("workers=%d n=%d: len=%d", workers, n, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("workers=%d n=%d: out[%d]=%d, want %d", workers, n, i, v, i*i)
				}
			}
		}
	}
}

// TestMapDeterministicAcrossWorkerCounts runs a job that derives its own RNG
// from JobSeed and checks every worker count yields byte-identical output.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const base = uint64(42)
	job := func(i int) []float64 {
		rng := trace.NewRNG(JobSeed(base, i))
		out := make([]float64, 8)
		for j := range out {
			out[j] = rng.Float64()
		}
		return out
	}
	want := Map(1, 50, job)
	for _, workers := range []int{2, 4, 8, 16} {
		got := Map(workers, 50, job)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: output differs from serial", workers)
		}
	}
}

func TestMapUsesAllWorkers(t *testing.T) {
	var running, peak atomic.Int64
	gate := make(chan struct{})
	Map(4, 4, func(i int) int {
		r := running.Add(1)
		for {
			p := peak.Load()
			if r <= p || peak.CompareAndSwap(p, r) {
				break
			}
		}
		if r == 4 {
			close(gate) // all four workers are in-flight at once
		}
		<-gate
		running.Add(-1)
		return i
	})
	if peak.Load() != 4 {
		t.Fatalf("peak concurrency = %d, want 4", peak.Load())
	}
}

func TestMapPanicLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: expected panic", workers)
				}
				if s, ok := r.(string); !ok || s != "job 3" {
					t.Fatalf("workers=%d: panic = %v, want job 3", workers, r)
				}
			}()
			Map(workers, 20, func(i int) int {
				if i >= 3 {
					panic(fmt.Sprintf("job %d", i))
				}
				return i
			})
		}()
	}
}

// TestMapErrFirstErrorByIndex checks the error semantics match a serial loop
// that stops at the first failure: the lowest-indexed error is returned, for
// every worker count.
func TestMapErrFirstErrorByIndex(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 8} {
		_, err := MapErr(workers, 30, func(i int) (int, error) {
			switch i {
			case 5:
				return 0, errLow
			case 20:
				return 0, errHigh
			}
			return i, nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errLow)
		}
	}
	out, err := MapErr(4, 10, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(out) != 10 || out[9] != 9 {
		t.Fatalf("bad output: %v", out)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(3); got != 3 {
		t.Fatalf("DefaultWorkers(3) = %d", got)
	}
	if got := DefaultWorkers(1); got != 1 {
		t.Fatalf("DefaultWorkers(1) = %d", got)
	}
	if got := DefaultWorkers(0); got < 1 {
		t.Fatalf("DefaultWorkers(0) = %d, want >= 1", got)
	}
	if got := DefaultWorkers(-7); got < 1 {
		t.Fatalf("DefaultWorkers(-7) = %d, want >= 1", got)
	}
}

// TestJobSeedIndependence checks seeds are a pure function of (base, index)
// and that distinct indices and bases give distinct seeds.
func TestJobSeedIndependence(t *testing.T) {
	seen := map[uint64]string{}
	for _, base := range []uint64{0, 1, 42, 0xdeadbeef} {
		for i := 0; i < 100; i++ {
			s := JobSeed(base, i)
			if s != JobSeed(base, i) {
				t.Fatalf("JobSeed not pure at base=%d i=%d", base, i)
			}
			id := fmt.Sprintf("%d/%d", base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both map to %#x", prev, id, s)
			}
			seen[s] = id
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache[string, int]()
	k1 := NewKey("test").Int(1).Sum()
	k2 := NewKey("test").Int(2).Sum()

	if _, ok := c.Get(k1); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put(k1, 11)
	if v, ok := c.Get(k1); !ok || v != 11 {
		t.Fatalf("Get(k1) = %d, %v", v, ok)
	}
	if _, ok := c.Get(k2); ok {
		t.Fatal("unexpected hit for k2")
	}
	st := c.Stats()
	if st.Jobs != 3 || st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CacheHitRate() == 0 {
		t.Fatal("hit rate should be nonzero")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}

	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset did not clear entries")
	}
	if st := c.Stats(); st.Jobs != 0 {
		t.Fatalf("Reset did not clear counters: %+v", st)
	}
}

// TestKeyNoAliasing checks the length-prefix framing: value sequences that
// would concatenate to the same bytes without framing must digest differently.
func TestKeyNoAliasing(t *testing.T) {
	pairs := [][2]*Key{
		{NewKey("a").Str("bc"), NewKey("ab").Str("c")},
		{NewKey("d").Bytes([]byte{1, 2}), NewKey("d").Bytes([]byte{1}).Bytes([]byte{2})},
		{NewKey("d").Str("x").Str(""), NewKey("d").Str("").Str("x")},
		{NewKey("n").Int(1), NewKey("n").Uint64(1).Int(0)},
	}
	for i, p := range pairs {
		if p[0].Sum() == p[1].Sum() {
			t.Fatalf("pair %d: distinct sequences share a digest", i)
		}
	}
	// And identical sequences must agree.
	a := NewKey("opt").Int(4).Float64(1.5).Bool(true).Str("fft").Sum()
	b := NewKey("opt").Int(4).Float64(1.5).Bool(true).Str("fft").Sum()
	if a != b {
		t.Fatal("identical sequences produced different digests")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache[string, int]()
	Map(8, 200, func(i int) int {
		k := NewKey("cc").Int(i % 10).Sum()
		if v, ok := c.Get(k); ok {
			return v
		}
		v := (i % 10) * 7
		c.Put(k, v)
		return v
	})
	st := c.Stats()
	if st.Jobs != 200 {
		t.Fatalf("jobs = %d, want 200", st.Jobs)
	}
	if c.Len() != 10 {
		t.Fatalf("len = %d, want 10", c.Len())
	}
	for i := 0; i < 10; i++ {
		v, ok := c.Get(NewKey("cc").Int(i).Sum())
		if !ok || v != i*7 {
			t.Fatalf("entry %d: %d, %v", i, v, ok)
		}
	}
}
