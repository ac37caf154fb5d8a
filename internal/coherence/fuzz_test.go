package coherence

import (
	"encoding/binary"
	"math"
	"testing"

	"cohort/internal/config"
)

// FuzzReleaseTime drives the closed-form release computation with arbitrary
// (fetched, req, θ) triples and checks the algebraic contract of §III-B:
// the release is never before the request, lands on an expiry boundary of
// the countdown counter, never wraps negative, and — for small inputs —
// agrees with a naive repeated-addition reference.
func FuzzReleaseTime(f *testing.F) {
	f.Add(int64(0), int64(10), int64(5))
	f.Add(int64(100), int64(40), int64(2))
	f.Add(int64(-1), int64(0), int64(1))
	f.Add(int64(0), int64(0), int64(0))
	f.Add(int64(7), int64(7), int64(-1))
	f.Add(int64(math.MaxInt64-3), int64(math.MaxInt64), int64(math.MaxInt32))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), int64(3))
	f.Fuzz(func(t *testing.T, fetched, req, rawTheta int64) {
		if rawTheta < int64(config.TimerMSI) || rawTheta > math.MaxInt32 {
			t.Skip("theta outside the int32 register")
		}
		theta := config.Timer(rawTheta)
		rel := ReleaseTime(fetched, req, theta)

		if !theta.Timed() {
			if rel != req {
				t.Fatalf("untimed θ=%d: release %d, want req %d", theta, rel, req)
			}
			return
		}
		if rel < req {
			t.Fatalf("release %d before request %d (fetched=%d θ=%d)", rel, req, fetched, theta)
		}
		if rel < fetched {
			t.Fatalf("release %d before fetch %d (req=%d θ=%d): wrapped", rel, fetched, req, theta)
		}
		if rel != math.MaxInt64 {
			// Non-saturated releases land exactly on an expiry boundary
			// fetched + k·θ, and on the FIRST boundary at or after the
			// request (the counter replenishes, it never skips ahead).
			// Two's-complement subtraction in uint64 is exact for
			// rel ≥ fetched even when the span exceeds MaxInt64.
			diff := uint64(rel) - uint64(fetched)
			th := uint64(theta)
			if diff%th != 0 {
				t.Fatalf("release %d not on an expiry boundary (fetched=%d θ=%d)", rel, fetched, theta)
			}
			var dreq uint64
			if req > fetched {
				dreq = uint64(req) - uint64(fetched)
			}
			if diff > th && diff-th >= dreq {
				t.Fatalf("release %d skipped an expiry ≥ req %d (fetched=%d θ=%d)", rel, req, fetched, theta)
			}
		}

		// Differential oracle: for small operands, repeated addition from
		// the fill cycle must reach the same expiry. Bounding the operands
		// (not req−fetched, which can wrap) keeps the loop short.
		small := func(v int64) bool { return v > -(1<<20) && v < 1<<20 }
		if theta <= 1<<12 && small(fetched) && small(req) {
			naive := fetched + int64(theta)
			for naive < req {
				naive += int64(theta)
			}
			if rel != naive {
				t.Fatalf("closed form %d != naive %d (fetched=%d req=%d θ=%d)", rel, naive, fetched, req, theta)
			}
		}
	})
}

// FuzzModeLUT decodes arbitrary bytes into a timer LUT and checks that
// construction and lookup fail closed: invalid entries are rejected at build
// time, out-of-range modes are rejected at lookup time, and every accepted
// lookup returns exactly the entry the mode indexes.
func FuzzModeLUT(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0x00, 0x05}, 1) // [−1, 5]
	f.Add([]byte{0x00, 0x00}, 2)             // [0], mode out of range
	f.Add([]byte{0x7f, 0xff, 0x00, 0x02, 0x00, 0x00}, 3)
	f.Add([]byte{}, 1) // empty LUT must be rejected
	f.Fuzz(func(t *testing.T, raw []byte, mode int) {
		var entries []config.Timer
		for i := 0; i+1 < len(raw); i += 2 {
			entries = append(entries, config.Timer(int16(binary.BigEndian.Uint16(raw[i:]))))
		}
		lut, err := NewModeLUT(entries)
		valid := len(entries) > 0
		for _, th := range entries {
			if !th.Valid() {
				valid = false
			}
		}
		if valid != (err == nil) {
			t.Fatalf("NewModeLUT(%v) err=%v, want failure=%v", entries, err, !valid)
		}
		if err != nil {
			return
		}
		if lut.Modes() != len(entries) || lut.StorageBits() != 16*len(entries) {
			t.Fatalf("LUT metadata: modes=%d bits=%d for %d entries", lut.Modes(), lut.StorageBits(), len(entries))
		}
		th, err := lut.Lookup(mode)
		if mode < 1 || mode > len(entries) {
			if err == nil {
				t.Fatalf("Lookup(%d) accepted out-of-range mode (LUT has %d modes)", mode, len(entries))
			}
			return
		}
		if err != nil {
			t.Fatalf("Lookup(%d): %v", mode, err)
		}
		if th != entries[mode-1] {
			t.Fatalf("Lookup(%d) = %d, want %d", mode, th, entries[mode-1])
		}
	})
}

// TestReleaseTimeBoundaryThetaZero pins the θ = 0 (no-cache) edge: the line
// is handed over exactly at the request, for any fetch/request relation.
func TestReleaseTimeBoundaryThetaZero(t *testing.T) {
	cases := []struct{ fetched, req int64 }{
		{0, 0}, {0, 100}, {100, 0}, {math.MinInt64, math.MaxInt64},
		{math.MaxInt64, math.MinInt64},
	}
	for _, c := range cases {
		if got := ReleaseTime(c.fetched, c.req, config.TimerNoCache); got != c.req {
			t.Errorf("ReleaseTime(%d, %d, 0) = %d, want %d", c.fetched, c.req, got, c.req)
		}
	}
}

// TestReleaseTimeBoundaryThetaMaxInt32 pins the far end of the register:
// even an out-of-spec θ = MaxInt32 (beyond the 16-bit TimerMax the paper
// allows) must saturate rather than wrap, because a wrapped negative release
// would silently disable the timer protection.
func TestReleaseTimeBoundaryThetaMaxInt32(t *testing.T) {
	theta := config.Timer(math.MaxInt32)
	if got := ReleaseTime(0, 1, theta); got != math.MaxInt32 {
		t.Errorf("ReleaseTime(0, 1, MaxInt32) = %d, want %d", got, math.MaxInt32)
	}
	if got := ReleaseTime(math.MaxInt64-3, math.MaxInt64, theta); got != math.MaxInt64 {
		t.Errorf("near-MaxInt64 fetch: got %d, want saturation at MaxInt64", got)
	}
	if got := ReleaseTime(math.MinInt64, math.MaxInt64, theta); got != math.MaxInt64 {
		t.Errorf("full-range span: got %d, want saturation at MaxInt64", got)
	}
	// One replenish period below the saturation point stays exact.
	if got := ReleaseTime(100, 50, theta); got != 100+int64(theta) {
		t.Errorf("ReleaseTime(100, 50, MaxInt32) = %d, want %d", got, 100+int64(theta))
	}
}
