// Package trace defines the memory-access workload model that drives the
// simulator: per-core streams of read/write accesses with compute gaps, a
// deterministic generator of synthetic multi-threaded workloads shaped after
// the SPLASH-2 benchmarks the paper evaluates on, and a text codec so traces
// can be stored and replayed.
//
// The paper runs SPLASH-2 binaries through the Octopus simulator; neither is
// available here, so the generator reproduces the *sharing structure* that
// the evaluation depends on — a hot shared footprint contended by all cores,
// per-core private working sets, temporal locality, and a read/write mix —
// with deterministic, seedable pseudo-randomness (see DESIGN.md §1).
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"strconv"
	"strings"
)

// Kind distinguishes loads from stores.
type Kind uint8

const (
	// Read is a load (bus GetS on a miss).
	Read Kind = iota
	// Write is a store (bus GetM on a miss or upgrade).
	Write
)

// String returns "R" or "W".
func (k Kind) String() string {
	if k == Write {
		return "W"
	}
	return "R"
}

// Access is one memory reference of a core's instruction stream.
type Access struct {
	// Addr is the byte address referenced.
	Addr uint64
	// Kind is Read or Write.
	Kind Kind
	// Gap is the number of compute cycles separating this access from the
	// issue of the previous one (0 = back to back).
	Gap int64
}

// Stream is the ordered access sequence of one core.
type Stream []Access

// HashStream writes every access of s to h as a 24-byte little-endian
// record (address, kind, gap), fed through a fixed buffer so the pass
// allocates nothing per access. It is the one access encoding behind every
// content fingerprint of a stream.
func HashStream(h hash.Hash, s Stream) {
	var buf [64 * 24]byte
	n := 0
	for i := range s {
		a := &s[i]
		binary.LittleEndian.PutUint64(buf[n:], a.Addr)
		binary.LittleEndian.PutUint64(buf[n+8:], uint64(a.Kind))
		binary.LittleEndian.PutUint64(buf[n+16:], uint64(a.Gap))
		if n += 24; n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
	}
	h.Write(buf[:n])
}

// Trace is a complete multi-core workload: one stream per core.
type Trace struct {
	// Name labels the workload (benchmark profile name).
	Name string
	// Streams holds one access stream per core.
	Streams []Stream
}

// NumCores returns the number of per-core streams.
func (t *Trace) NumCores() int { return len(t.Streams) }

// TotalAccesses returns Λ summed over all cores.
func (t *Trace) TotalAccesses() int {
	n := 0
	for _, s := range t.Streams {
		n += len(s)
	}
	return n
}

// Lambda returns Λ_i, the access count of core i (paper §II task model).
func (t *Trace) Lambda(i int) int { return len(t.Streams[i]) }

// Write encodes the trace in a line-oriented text format:
//
//	# name <name>
//	<core> <addr-hex> <R|W> <gap>
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name %s\n", t.Name); err != nil {
		return err
	}
	for core, s := range t.Streams {
		for _, a := range s {
			if _, err := fmt.Fprintf(bw, "%d %x %s %d\n", core, a.Addr, a.Kind, a.Gap); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Parse decodes a trace written by Write. Accesses keep their per-core order;
// the number of cores is one more than the largest core index seen.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	t := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# name "); ok {
				t.Name = strings.TrimSpace(rest)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		core, err := strconv.Atoi(fields[0])
		if err != nil || core < 0 {
			return nil, fmt.Errorf("trace: line %d: bad core %q", lineNo, fields[0])
		}
		addr, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address %q", lineNo, fields[1])
		}
		var kind Kind
		switch fields[2] {
		case "R":
			kind = Read
		case "W":
			kind = Write
		default:
			return nil, fmt.Errorf("trace: line %d: bad kind %q", lineNo, fields[2])
		}
		gap, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil || gap < 0 {
			return nil, fmt.Errorf("trace: line %d: bad gap %q", lineNo, fields[3])
		}
		for core >= len(t.Streams) {
			t.Streams = append(t.Streams, nil)
		}
		t.Streams[core] = append(t.Streams[core], Access{Addr: addr, Kind: kind, Gap: gap})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return t, nil
}
