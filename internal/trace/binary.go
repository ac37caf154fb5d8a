package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary trace format: a compact varint encoding for large workloads
// (ocean-sized traces are ~20× smaller than the text form and decode an
// order of magnitude faster).
//
//	magic   "CTRB" '\x01'
//	name    uvarint length + bytes
//	cores   uvarint
//	per core:
//	  count uvarint
//	  per access:
//	    flags  1 byte (bit0: write)
//	    addr   uvarint delta against the previous address (zig-zag)
//	    gap    uvarint
const (
	binaryMagic   = "CTRB"
	binaryVersion = 1
)

// ErrBadMagic reports a stream that is not a binary trace.
var ErrBadMagic = errors.New("trace: bad binary magic")

// WriteBinary encodes the trace in the compact binary format.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Streams))); err != nil {
		return err
	}
	for _, s := range t.Streams {
		if err := putUvarint(uint64(len(s))); err != nil {
			return err
		}
		prev := uint64(0)
		for _, a := range s {
			flags := byte(0)
			if a.Kind == Write {
				flags |= 1
			}
			if err := bw.WriteByte(flags); err != nil {
				return err
			}
			delta := int64(a.Addr) - int64(prev)
			if err := putUvarint(zigzag(delta)); err != nil {
				return err
			}
			prev = a.Addr
			if err := putUvarint(uint64(a.Gap)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// minAccessBytes is the size of the smallest encoded access: a flags byte
// and two one-byte uvarints.
const minAccessBytes = 3

// ParseBinary decodes a trace written by WriteBinary. It reads r to the end
// once and decodes from memory, allocating each stream once at its declared
// length.
func ParseBinary(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: binary read: %w", err)
	}
	if len(data) < len(binaryMagic)+1 {
		return nil, fmt.Errorf("trace: binary header: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, ErrBadMagic
	}
	if v := data[len(binaryMagic)]; v != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported binary version %d", v)
	}
	d := decoder{buf: data, off: len(binaryMagic) + 1}
	nameLen, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	if nameLen > uint64(d.left()) {
		return nil, fmt.Errorf("trace: name: %w", io.ErrUnexpectedEOF)
	}
	name := string(data[d.off : d.off+int(nameLen)])
	d.off += int(nameLen)
	nCores, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: core count: %w", err)
	}
	if nCores > 1<<16 {
		return nil, fmt.Errorf("trace: implausible core count %d", nCores)
	}
	t := &Trace{Name: name, Streams: make([]Stream, nCores)}
	for c := range t.Streams {
		count, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: core %d count: %w", c, err)
		}
		// A hostile header must not force a gigantic allocation: a count is
		// trusted only as far as the remaining input could hold it.
		if count > 1<<31 || count > uint64(d.left()/minAccessBytes) {
			return nil, fmt.Errorf("trace: implausible access count %d for %d remaining bytes", count, d.left())
		}
		s := make(Stream, count)
		prev := uint64(0)
		for i := range s {
			if d.left() == 0 {
				return nil, fmt.Errorf("trace: core %d access %d flags: %w", c, i, io.ErrUnexpectedEOF)
			}
			flags := data[d.off]
			d.off++
			if flags > 1 {
				return nil, fmt.Errorf("trace: core %d access %d bad flags %#x", c, i, flags)
			}
			zz, err := d.uvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: core %d access %d addr: %w", c, i, err)
			}
			addr := uint64(int64(prev) + unzigzag(zz))
			prev = addr
			gap, err := d.uvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: core %d access %d gap: %w", c, i, err)
			}
			if gap > math.MaxInt64 {
				// Gap is a cycle count stored as int64; a uvarint above
				// MaxInt64 would silently wrap negative and stall the
				// simulator's clock.
				return nil, fmt.Errorf("trace: core %d access %d gap %d overflows int64", c, i, gap)
			}
			kind := Read
			if flags&1 != 0 {
				kind = Write
			}
			s[i] = Access{Addr: addr, Kind: kind, Gap: int64(gap)}
		}
		t.Streams[c] = s
	}
	return t, nil
}

// errVarintOverflow reports a uvarint longer than 64 bits.
var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// decoder is a read cursor over an in-memory binary trace.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) left() int { return len(d.buf) - d.off }

// uvarint decodes the uvarint at the cursor and steps past it.
func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n > 0:
		d.off += n
		return v, nil
	case n == 0:
		return 0, io.ErrUnexpectedEOF
	}
	return 0, errVarintOverflow
}

// zigzag maps signed deltas to unsigned varint-friendly values.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
