package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
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
// and two one-byte uvarints; maxAccessBytes is the largest, with two
// ten-byte uvarints.
const (
	minAccessBytes = 3
	maxAccessBytes = 1 + 2*binary.MaxVarintLen64
)

// windowBytes caps the buffer ParseBinary decodes a sized input through.
const windowBytes = 64 << 10

// ParseBinary decodes a trace written by WriteBinary, allocating each stream
// once at its declared length. An input that reports its size — a regular
// *os.File, or a reader with a Len method such as *bytes.Reader — is decoded
// through a window of at most 64 KiB, so no more of the encoded bytes than
// that are held at once. Any other reader is read to the end first and
// decoded from memory.
func ParseBinary(r io.Reader) (*Trace, error) {
	d, err := newDecoder(r)
	if err != nil {
		return nil, fmt.Errorf("trace: binary read: %w", err)
	}
	if err := d.need(len(binaryMagic) + 1); err != nil {
		return nil, fmt.Errorf("trace: binary read: %w", err)
	}
	if d.end-d.off < len(binaryMagic)+1 {
		return nil, fmt.Errorf("trace: binary header: %w", io.ErrUnexpectedEOF)
	}
	if string(d.buf[d.off:d.off+len(binaryMagic)]) != binaryMagic {
		return nil, ErrBadMagic
	}
	if v := d.buf[d.off+len(binaryMagic)]; v != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported binary version %d", v)
	}
	d.off += len(binaryMagic) + 1
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
	// A window holds 64 KiB or the whole input, so any name fits in it.
	if err := d.need(int(nameLen)); err != nil {
		return nil, fmt.Errorf("trace: binary read: %w", err)
	}
	if uint64(d.end-d.off) < nameLen {
		return nil, fmt.Errorf("trace: name: %w", io.ErrUnexpectedEOF)
	}
	name := string(d.buf[d.off : d.off+int(nameLen)])
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
			if d.end-d.off < maxAccessBytes {
				if err := d.need(maxAccessBytes); err != nil {
					return nil, fmt.Errorf("trace: binary read: %w", err)
				}
			}
			if d.off == d.end {
				return nil, fmt.Errorf("trace: core %d access %d flags: %w", c, i, io.ErrUnexpectedEOF)
			}
			flags := d.buf[d.off]
			d.off++
			if flags > 1 {
				return nil, fmt.Errorf("trace: core %d access %d bad flags %#x", c, i, flags)
			}
			zz, err := d.next()
			if err != nil {
				return nil, fmt.Errorf("trace: core %d access %d addr: %w", c, i, err)
			}
			addr := uint64(int64(prev) + unzigzag(zz))
			prev = addr
			gap, err := d.next()
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

// decoder is a read cursor over a binary trace: buf[off:end] holds the
// input bytes not yet decoded, and rest more wait in r. An input read whole
// is all in buf, with rest 0.
type decoder struct {
	r        io.Reader
	buf      []byte
	off, end int
	rest     int64
}

// newDecoder sizes the input. A sized input gets a window of at most
// windowBytes, filled on demand; any other is read to the end.
func newDecoder(r io.Reader) (*decoder, error) {
	size, ok := inputSize(r)
	if !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		return &decoder{buf: data, end: len(data)}, nil
	}
	return &decoder{r: r, buf: make([]byte, min(size, windowBytes)), rest: size}, nil
}

// inputSize reports how many bytes remain in r, when r can tell: a regular
// *os.File from its size and offset, or any reader with a Len method.
func inputSize(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case *os.File:
		fi, err := v.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		off, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return max(fi.Size()-off, 0), true
	case interface{ Len() int }:
		return int64(v.Len()), true
	}
	return 0, false
}

// left reports how many input bytes remain to decode.
func (d *decoder) left() int64 { return int64(d.end-d.off) + d.rest }

// need makes at least n bytes available at the cursor, or all that remain
// when fewer do. It moves the undecoded tail to the front of the window and
// reads up to the window's end, or to the input's size.
func (d *decoder) need(n int) error {
	if d.end-d.off >= n || d.rest == 0 {
		return nil
	}
	d.end = copy(d.buf, d.buf[d.off:d.end])
	d.off = 0
	want := min(int64(len(d.buf)-d.end), d.rest)
	k, err := io.ReadFull(d.r, d.buf[d.end:d.end+int(want)])
	d.end += k
	d.rest -= int64(k)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		d.rest = 0 // shorter than it said: decoding reports the truncation
	case err != nil:
		return err
	}
	return nil
}

// uvarint decodes the uvarint at the cursor, reading more input first if
// the window holds less than a full uvarint.
func (d *decoder) uvarint() (uint64, error) {
	if err := d.need(binary.MaxVarintLen64); err != nil {
		return 0, err
	}
	return d.next()
}

// next decodes the uvarint at the cursor from the bytes already in the
// window and steps past it.
func (d *decoder) next() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:d.end])
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
