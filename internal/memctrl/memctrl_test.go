package memctrl

import (
	"runtime"
	"testing"

	"cohort/internal/config"
	"cohort/internal/obs"
)

func smallGeom() config.CacheGeometry {
	return config.CacheGeometry{SizeBytes: 2 * 64 * 2, LineBytes: 64, Ways: 2} // 2 sets, 2 ways
}

func TestPerfectLLCAlwaysHits(t *testing.T) {
	l := New(smallGeom(), true, 100)
	for i := uint64(0); i < 1000; i++ {
		penalty, backInv := l.Fetch(i, 0, nil)
		if penalty != 0 || backInv != nil {
			t.Fatalf("perfect LLC: penalty=%d backInv=%v", penalty, backInv)
		}
		if !l.Contains(i) {
			t.Fatal("perfect LLC must contain everything")
		}
	}
	hits, misses, _, _ := l.Stats()
	if hits != 1000 || misses != 0 {
		t.Fatalf("perfect stats: hits=%d misses=%d", hits, misses)
	}
	if got := l.WriteBack(5, 0, nil); got != nil {
		t.Fatal("perfect writeback must be a no-op")
	}
}

func TestNonPerfectMissHitSequence(t *testing.T) {
	l := New(smallGeom(), false, 100)
	penalty, backInv := l.Fetch(4, 0, nil)
	if penalty != 100 || len(backInv) != 0 {
		t.Fatalf("cold miss: penalty=%d backInv=%v", penalty, backInv)
	}
	penalty, _ = l.Fetch(4, 1, nil)
	if penalty != 0 {
		t.Fatalf("second fetch should hit, penalty=%d", penalty)
	}
	hits, misses, _, _ := l.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats: hits=%d misses=%d", hits, misses)
	}
}

func TestEvictionBackInvalidation(t *testing.T) {
	l := New(smallGeom(), false, 100)
	// Set 0 holds even line addresses (2 sets). Fill both ways of set 0.
	l.Fetch(0, 0, nil)
	l.Fetch(2, 1, nil)
	// Third distinct line in set 0 evicts the LRU (line 0).
	_, backInv := l.Fetch(4, 2, nil)
	if len(backInv) != 1 || backInv[0] != 0 {
		t.Fatalf("backInv = %v, want [0]", backInv)
	}
	if l.Contains(0) {
		t.Fatal("evicted line still present")
	}
}

func TestPinnedLinesNeverEvicted(t *testing.T) {
	l := New(smallGeom(), false, 100)
	l.Fetch(0, 0, nil)
	l.Fetch(2, 1, nil)
	pinned := func(la uint64) bool { return la == 0 }
	_, backInv := l.Fetch(4, 2, pinned)
	if len(backInv) != 1 || backInv[0] != 2 {
		t.Fatalf("backInv = %v, want [2] (line 0 pinned)", backInv)
	}
	// All ways pinned: bypass, no back-invalidation, still a DRAM penalty.
	l.Fetch(2, 3, nil) // refill line 2
	allPinned := func(uint64) bool { return true }
	penalty, backInv := l.Fetch(6, 4, allPinned)
	if penalty != 100 || backInv != nil {
		t.Fatalf("bypass: penalty=%d backInv=%v", penalty, backInv)
	}
	if l.Contains(6) {
		t.Fatal("bypassed line must not be cached")
	}
	_, _, _, bypasses := l.Stats()
	if bypasses != 1 {
		t.Fatalf("bypasses = %d", bypasses)
	}
}

func TestWriteBackInstallsLine(t *testing.T) {
	l := New(smallGeom(), false, 100)
	if l.Contains(8) {
		t.Fatal("empty LLC contains line")
	}
	if backInv := l.WriteBack(8, 0, nil); backInv != nil {
		t.Fatalf("writeback into empty set returned %v", backInv)
	}
	if !l.Contains(8) {
		t.Fatal("writeback must install the line")
	}
	// A fetch after the writeback hits.
	penalty, _ := l.Fetch(8, 1, nil)
	if penalty != 0 {
		t.Fatalf("fetch after writeback: penalty=%d", penalty)
	}
	// Writeback of a present line just touches it.
	if backInv := l.WriteBack(8, 2, nil); backInv != nil {
		t.Fatalf("writeback of present line returned %v", backInv)
	}
}

func TestWriteBackEvictionReportsBackInv(t *testing.T) {
	l := New(smallGeom(), false, 100)
	l.Fetch(0, 0, nil)
	l.Fetch(2, 1, nil)
	backInv := l.WriteBack(4, 2, nil)
	if len(backInv) != 1 || backInv[0] != 0 {
		t.Fatalf("writeback eviction backInv = %v, want [0]", backInv)
	}
	// All-pinned set: writeback is dropped without eviction.
	backInv = l.WriteBack(6, 3, func(uint64) bool { return true })
	if backInv != nil {
		t.Fatalf("all-pinned writeback returned %v", backInv)
	}
}

func TestLRUWithinLLC(t *testing.T) {
	l := New(smallGeom(), false, 100)
	l.Fetch(0, 0, nil)
	l.Fetch(2, 1, nil)
	l.Fetch(0, 2, nil) // touch line 0 -> line 2 becomes LRU
	_, backInv := l.Fetch(4, 3, nil)
	if len(backInv) != 1 || backInv[0] != 2 {
		t.Fatalf("LRU eviction = %v, want [2]", backInv)
	}
}

func TestPerfectAccessor(t *testing.T) {
	if !New(smallGeom(), true, 0).Perfect() {
		t.Fatal("perfect LLC not reported")
	}
	if New(smallGeom(), false, 1).Perfect() {
		t.Fatal("non-perfect LLC reported perfect")
	}
}

// perfectSink keeps the LLCs built by TestPerfectLLCHoldsNoArray on the heap.
var perfectSink *LLC

// TestPerfectLLCHoldsNoArray checks that a perfect LLC allocates no cache
// array (the paper platform's would be 1.3 MB) and reports no valid lines.
// TestPerfectLLCAlwaysHits covers its answers to Fetch, WriteBack and
// Contains, which must never touch the missing array.
func TestPerfectLLCHoldsNoArray(t *testing.T) {
	geom := config.PaperDefaults(4, 1).LLC
	l := New(geom, true, 100)
	if l.Array() != nil {
		t.Fatal("perfect LLC holds a cache array")
	}
	l.Fetch(7, 0, nil)
	reg := obs.NewRegistry()
	l.RegisterMetrics(reg)
	if m, ok := reg.Snapshot().Get("llc_valid_lines"); !ok || m.Value != 0 {
		t.Fatalf("llc_valid_lines = %+v (registered %v), want 0", m, ok)
	}

	const n = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		perfectSink = New(geom, true, 100)
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / n; per >= 1024 {
		t.Fatalf("perfect New allocated %d bytes, want < 1 KiB", per)
	}
}
