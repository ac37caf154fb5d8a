package stats

// Attribution decomposes a core's miss latency into the four places a
// request's cycles can go (DESIGN.md §10): waiting for the arbiter to grant
// the bus (broadcast grant plus data grant after the data became available),
// waiting out timer-protected copies before the data may be handed over,
// occupying the bus for the broadcast and data transfers themselves, and the
// LLC/DRAM fetch penalty when the memory owns the line. The components are
// exact: for every completed miss they sum to the recorded miss latency, so
//
//	Attr.TotalCycles() + Hits·L_hit == TotalLatency
//
// holds for every core of every run (asserted by TestAttributionIdentity).
// All fields are plain values updated by integer adds and Histogram.Observe,
// so recording stays allocation-free on the simulator hot path.
type Attribution struct {
	// ArbitrationCycles is the summed time spent waiting for bus grants.
	ArbitrationCycles int64
	// TimerStallCycles is the summed time between a request becoming
	// globally visible and its data becoming transferable — timer-protected
	// owner/sharer windows plus the wait behind earlier requesters of the
	// same line.
	TimerStallCycles int64
	// TransferCycles is the summed bus occupancy of the request's own
	// broadcast and data phases (two data phases under via-memory transfers).
	TransferCycles int64
	// DRAMCycles is the summed LLC-miss fetch penalty for memory-sourced data.
	DRAMCycles int64
	// Arbitration, TimerStall, Transfer and DRAM are the per-miss
	// distributions of the four components.
	Arbitration Histogram
	TimerStall  Histogram
	Transfer    Histogram
	DRAM        Histogram
}

// Record folds one completed miss's decomposition into the totals and
// distributions.
func (a *Attribution) Record(arb, timer, transfer, dram int64) {
	a.ArbitrationCycles += arb
	a.TimerStallCycles += timer
	a.TransferCycles += transfer
	a.DRAMCycles += dram
	a.Arbitration.Observe(arb)
	a.TimerStall.Observe(timer)
	a.Transfer.Observe(transfer)
	a.DRAM.Observe(dram)
}

// TotalCycles sums the four components — the core's total miss latency.
func (a *Attribution) TotalCycles() int64 {
	return a.ArbitrationCycles + a.TimerStallCycles + a.TransferCycles + a.DRAMCycles
}

// Merge accumulates other's totals and distributions into a.
func (a *Attribution) Merge(other *Attribution) {
	if other == nil {
		return
	}
	a.ArbitrationCycles += other.ArbitrationCycles
	a.TimerStallCycles += other.TimerStallCycles
	a.TransferCycles += other.TransferCycles
	a.DRAMCycles += other.DRAMCycles
	a.Arbitration.Merge(&other.Arbitration)
	a.TimerStall.Merge(&other.TimerStall)
	a.Transfer.Merge(&other.Transfer)
	a.DRAM.Merge(&other.DRAM)
}
