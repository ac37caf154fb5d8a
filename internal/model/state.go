package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"

	"cohort/internal/bus"
	"cohort/internal/coherence"
	"cohort/internal/config"
	"cohort/internal/core"
)

// Canonical state encoding. A quiescent system is reduced to the fields that
// determine all future behavior, each rebased so that two runs reaching
// behaviorally identical states produce byte-identical encodings:
//
//   - timer epochs become residues (boundary − FetchedAt) mod θ — a future
//     request at boundary+g waits (θ − (residue+g) mod θ) mod θ cycles, a
//     function of the residue alone (Fig. 3 closed form);
//   - write versions become per-copy deltas against the line's committed
//     version — the value-consistency predicate only ever compares the two;
//   - LRU stamps become ranks (cache.EntriesLRU orders by recency);
//   - under RROF/RR the live arbiter rotation is encoded explicitly; under
//     TDM, which keys on absolute time, the boundary's phase within the slot
//     rotation is encoded instead;
//   - with symmetry enabled, the encoding is minimized over all permutations
//     of identically-configured cores (the canonical representative of the
//     orbit), shrinking the state space by up to |class|! per class.
//
// Replays assert quiescence (no waiters, no in-flight transfer, bus idle)
// before a state is encoded, so the omitted transient fields are all at
// their rest values.

type canonKey = [16]byte

// canonicalKey encodes the quiescent system rebased at the script boundary
// and returns a 16-byte hash of the lexicographically smallest encoding over
// the symmetry group.
func (c *Checker) canonicalKey(sys *core.System, boundary int64) canonKey {
	var best []byte
	for _, perm := range c.perms {
		enc := c.encode(sys, boundary, perm)
		if best == nil || bytes.Compare(enc, best) < 0 {
			best = enc
		}
	}
	sum := sha256.Sum256(best)
	var k canonKey
	copy(k[:], sum[:len(k)])
	return k
}

// encode renders one permutation's view: order[pos] is the original core id
// occupying canonical position pos.
func (c *Checker) encode(sys *core.System, boundary int64, order []int) []byte {
	n := len(order)
	inv := make([]int, n)
	for pos, orig := range order {
		inv[orig] = pos
	}
	b := make([]byte, 0, 512)
	b = appendI64(b, int64(sys.Mode()))

	switch arb := sys.BusArbiter().(type) {
	case *bus.RROF:
		for _, x := range arb.Order() {
			b = append(b, byte(inv[x]))
		}
	case *bus.RR:
		for _, x := range arb.Order() {
			b = append(b, byte(inv[x]))
		}
	case *bus.FCFS:
		// Stateless between transactions.
	case *bus.TDM:
		// The slot owner at a future cycle t is schedule[(t/SW) mod k]: the
		// boundary's phase within one full rotation captures it.
		k := 0
		for i := 0; i < n; i++ {
			if c.sys.Cores[i].Criticality >= sys.Mode() {
				k++
			}
		}
		if k == 0 {
			k = n
		}
		b = appendI64(b, boundary%(c.sys.Lat.SlotWidth()*int64(k)))
	}
	b = append(b, 0xFD)

	dir := sys.Directory()
	for _, orig := range order {
		theta := sys.CoreTheta(orig)
		b = appendI64(b, int64(theta))
		l1 := sys.CoreL1(orig)
		for _, set := range c.l1Sets {
			c.lruScratch = l1.AppendEntriesLRU(c.lruScratch[:0], set)
			for _, e := range c.lruScratch {
				li := dir.Peek(e.LineAddr)
				b = append(b, byte(c.lineIdx[e.LineAddr]), byte(e.State))
				b = appendI64(b, int64(li.Version-e.Version))
				b = appendI64(b, residue(boundary, e.FetchedAt, theta))
			}
			b = append(b, 0xFF)
		}
	}

	for _, la := range c.lineAddrs {
		li := dir.Peek(la)
		if li == nil {
			b = append(b, 0xFE)
			continue
		}
		if li.Owner == coherence.MemOwner {
			b = append(b, 0)
			b = appendI64(b, 0)
		} else {
			b = append(b, byte(inv[li.Owner]+1))
			b = appendI64(b, residue(boundary, li.OwnerFetch, sys.CoreTheta(li.Owner)))
		}
		var mask uint64
		for pos, orig := range order {
			if li.IsSharer(orig) {
				mask |= 1 << uint(pos)
			}
		}
		b = appendI64(b, int64(mask))
		b = append(b, boolByte(li.PendingInv()), boolByte(li.OwnerReleased))
	}

	if !c.sys.PerfectLLC {
		llc := sys.LLC()
		for _, la := range c.lineAddrs {
			b = append(b, boolByte(llc.Contains(la)), boolByte(llc.Bypassed(la)))
		}
		arr := llc.Array()
		for _, set := range c.llcSets {
			c.lruScratch = arr.AppendEntriesLRU(c.lruScratch[:0], set)
			for _, e := range c.lruScratch {
				idx, ok := c.lineIdx[e.LineAddr]
				if !ok {
					idx = 251 // foreign line; never expected (workload only touches c.lines)
				}
				b = append(b, byte(idx), byte(e.State))
			}
			b = append(b, 0xFF)
		}
	}
	return b
}

// residue reduces a fetch epoch to its timer phase at the boundary; untimed
// registers (MSI, no-cache) have no phase.
func residue(boundary, fetchedAt int64, theta config.Timer) int64 {
	if !theta.Timed() {
		return 0
	}
	return (boundary - fetchedAt) % int64(theta)
}

func appendI64(b []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(v))
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
