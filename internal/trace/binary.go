package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"sync"
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

// windowBytes caps the encoded bytes a decode holds at once.
const windowBytes = 64 << 10

// ParseBinary decodes a trace written by WriteBinary: DecodeBinary, then
// Wait.
func ParseBinary(r io.Reader) (*Trace, error) {
	d, err := DecodeBinary(r)
	if err != nil {
		return nil, err
	}
	return d.Wait()
}

// A Decoding is a binary trace whose streams are being decoded on a
// goroutine of its own. Each stream is allocated at its declared length
// from the start, and Next tells how much of it is decoded.
type Decoding struct {
	t    *Trace
	in   *input
	sec  []section // the sections found, in file order
	tail error     // what stopped the section search, reported if every section found decodes

	mu      sync.Mutex
	cond    sync.Cond
	decoded []int // per core, the accesses decoded so far
	ended   bool
	err     error
}

// section is the decode state of one core's accesses.
type section struct {
	pos  int64  // input offset of the next access to decode
	prev uint64 // address of the last access decoded
	n    int    // accesses decoded
}

// DecodeBinary reads a binary trace's header and every section's count,
// allocates each stream at its declared length, and decodes the accesses
// on a goroutine of its own. A section starts where the one before it
// ends, which DecodeBinary finds without decoding: every well-formed
// access ends at its third byte below 0x80 (the flags byte and the last
// byte of each uvarint). The goroutine then decodes the sections
// round-robin, one window per core at a time, publishing each core's count
// after every window.
//
// An input that can be read at any offset and reports its size — a
// regular *os.File, or a reader with ReadAt, Size and Len methods such as
// *bytes.Reader — is read through one window of at most 64 KiB, so no more
// of the encoded bytes than that are held at once, whatever the core count.
// Any other reader is read to the end first. An error in the header comes
// back at once; any later one from Next and Wait, the first in file order.
// The goroutine stops by itself once every section is decoded or one
// fails; r must stay readable until then, so close a file only after Wait.
func DecodeBinary(r io.Reader) (*Decoding, error) {
	in, err := newInput(r)
	if err != nil {
		return nil, fmt.Errorf("trace: binary read: %w", err)
	}
	c := &cursor{in: in}
	if err := c.need(len(binaryMagic) + 1); err != nil {
		return nil, fmt.Errorf("trace: binary read: %w", err)
	}
	if c.avail() < len(binaryMagic)+1 {
		return nil, fmt.Errorf("trace: binary header: %w", io.ErrUnexpectedEOF)
	}
	if string(c.buf[c.off:c.off+len(binaryMagic)]) != binaryMagic {
		return nil, ErrBadMagic
	}
	if v := c.buf[c.off+len(binaryMagic)]; v != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported binary version %d", v)
	}
	c.off += len(binaryMagic) + 1
	nameLen, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	if nameLen > uint64(c.left()) {
		return nil, fmt.Errorf("trace: name: %w", io.ErrUnexpectedEOF)
	}
	// A window holds 64 KiB or the rest of the input, so any name fits in it.
	if err := c.need(int(nameLen)); err != nil {
		return nil, fmt.Errorf("trace: binary read: %w", err)
	}
	if uint64(c.avail()) < nameLen {
		return nil, fmt.Errorf("trace: name: %w", io.ErrUnexpectedEOF)
	}
	name := string(c.buf[c.off : c.off+int(nameLen)])
	c.off += int(nameLen)
	nCores, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: core count: %w", err)
	}
	if nCores > maxCores {
		return nil, fmt.Errorf("trace: implausible core count %d", nCores)
	}
	d := &Decoding{
		t:       &Trace{Name: name, Streams: make([]Stream, nCores)},
		in:      in,
		sec:     make([]section, 0, nCores),
		decoded: make([]int, nCores),
	}
	d.cond.L = &d.mu
	d.tail = d.findSections(c)
	go d.decode()
	return d, nil
}

// findSections reads each core's count, allocates its stream and steps
// over its accesses to the next count. It returns the error that stopped
// it early, if one did: a bad count, a failed read, or input that ends
// inside a section, whose decode then reports where. For well-formed input
// every section is found where it starts; past a malformed access the
// search may go astray, but that access's own error comes first in file
// order.
func (d *Decoding) findSections(c *cursor) error {
	for core := range d.t.Streams {
		count, err := c.uvarint()
		if err != nil {
			return fmt.Errorf("trace: core %d count: %w", core, err)
		}
		// A hostile header must not force a gigantic allocation: a count is
		// trusted only as far as the remaining input could hold it.
		if count > 1<<31 || count > uint64(c.left()/minAccessBytes) {
			return fmt.Errorf("trace: implausible access count %d for %d remaining bytes", count, c.left())
		}
		d.t.Streams[core] = make(Stream, count)
		d.sec = append(d.sec, section{pos: c.at()})
		found, err := c.skip(3 * int64(count))
		if err != nil {
			return fmt.Errorf("trace: binary read: %w", err)
		}
		if !found {
			return fmt.Errorf("trace: core %d: %w", core, io.ErrUnexpectedEOF)
		}
	}
	return nil
}

// decode decodes the sections found, round-robin one window at a time, and
// publishes each core's count after its window. An error in a section
// drops every later section, whose errors would come after it in file
// order; earlier sections go on, and an error in one of them replaces it.
func (d *Decoding) decode() {
	c := &cursor{in: d.in}
	err := d.tail
	end := len(d.sec)
	for more := true; more; {
		more = false
		for core := 0; core < end; core++ {
			s := &d.sec[core]
			if s.n == len(d.t.Streams[core]) {
				continue
			}
			werr := d.window(c, core)
			d.mu.Lock()
			d.decoded[core] = s.n
			d.mu.Unlock()
			d.cond.Broadcast()
			if werr != nil {
				err, end = werr, core
				break
			}
			more = more || s.n < len(d.t.Streams[core])
		}
	}
	d.mu.Lock()
	d.ended, d.err = true, err
	d.mu.Unlock()
	d.cond.Broadcast()
}

// window decodes core's accesses from its section's position through one
// window, stopping where the window may cut an access short.
func (d *Decoding) window(c *cursor, core int) error {
	sec := &d.sec[core]
	if err := c.seek(sec.pos); err != nil {
		return fmt.Errorf("trace: binary read: %w", err)
	}
	s := d.t.Streams[core]
	i, err := sec.n, error(nil)
	for ; i < len(s) && (c.avail() >= maxAccessBytes || c.last()); i++ {
		if c.avail() == 0 {
			err = fmt.Errorf("trace: core %d access %d flags: %w", core, i, io.ErrUnexpectedEOF)
			break
		}
		flags := c.buf[c.off]
		c.off++
		if flags > 1 {
			err = fmt.Errorf("trace: core %d access %d bad flags %#x", core, i, flags)
			break
		}
		zz, zerr := c.next()
		if zerr != nil {
			err = fmt.Errorf("trace: core %d access %d addr: %w", core, i, zerr)
			break
		}
		addr := uint64(int64(sec.prev) + unzigzag(zz))
		sec.prev = addr
		gap, gerr := c.next()
		if gerr != nil {
			err = fmt.Errorf("trace: core %d access %d gap: %w", core, i, gerr)
			break
		}
		if gap > math.MaxInt64 {
			// Gap is a cycle count stored as int64; a uvarint above
			// MaxInt64 would silently wrap negative and stall the
			// simulator's clock.
			err = fmt.Errorf("trace: core %d access %d gap %d overflows int64", core, i, gap)
			break
		}
		kind := Read
		if flags&1 != 0 {
			kind = Write
		}
		s[i] = Access{Addr: addr, Kind: kind, Gap: int64(gap)}
	}
	sec.pos, sec.n = c.at(), i
	return err
}

// Trace returns the trace being decoded. Its name and stream lengths are
// final; a stream's accesses are valid only below the count Next reports
// for its core, and all of them once Wait returns without an error.
func (d *Decoding) Trace() *Trace { return d.t }

// Next waits until more than have of core's accesses are decoded and
// returns how many are. When the decode ends with no more for core, it
// returns have and the decode's error, which is not nil while have is
// below the stream's length. It allocates nothing.
func (d *Decoding) Next(core, have int) (int, error) {
	d.mu.Lock()
	for d.decoded[core] <= have && !d.ended {
		d.cond.Wait()
	}
	n, err := d.decoded[core], d.err
	d.mu.Unlock()
	if n > have {
		return n, nil
	}
	return have, err
}

// Wait waits for the decode to end and returns the whole trace, or the
// first error in file order.
func (d *Decoding) Wait() (*Trace, error) {
	d.mu.Lock()
	for !d.ended {
		d.cond.Wait()
	}
	err := d.err
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return d.t, nil
}

// errVarintOverflow reports a uvarint longer than 64 bits.
var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// input is an encoded trace of size bytes: held whole in data, or read
// through win from ra, where it starts at base.
type input struct {
	data []byte
	ra   io.ReaderAt
	base int64
	size int64
	win  []byte
}

// newInput sizes r. An input that can be read at any offset gets a window
// of at most windowBytes; any other is read to the end.
func newInput(r io.Reader) (*input, error) {
	if ra, base, size, ok := locate(r); ok {
		return &input{ra: ra, base: base, size: size, win: make([]byte, min(size, windowBytes))}, nil
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return &input{data: data, size: int64(len(data))}, nil
}

// locate reports where the bytes left in r lie when r can be read at any
// offset and can tell how many remain: a regular *os.File from its offset
// and size, or a reader with ReadAt, Size and Len methods.
func locate(r io.Reader) (ra io.ReaderAt, base, size int64, ok bool) {
	switch v := r.(type) {
	case *os.File:
		fi, err := v.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return nil, 0, 0, false
		}
		off, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return nil, 0, 0, false
		}
		return v, off, max(fi.Size()-off, 0), true
	case interface {
		io.ReaderAt
		Size() int64
		Len() int
	}:
		return v, v.Size() - int64(v.Len()), int64(v.Len()), true
	}
	return nil, 0, 0, false
}

// window returns the input from off on, at most windowBytes of it. An
// input that ends before its size says shrinks to what it holds, so
// decoding reports the truncation.
func (in *input) window(off int64) ([]byte, error) {
	n := max(min(in.size-off, windowBytes), 0)
	if in.ra == nil {
		return in.data[off : off+n], nil
	}
	k, err := in.ra.ReadAt(in.win[:n], in.base+off)
	if int64(k) < n {
		if err != nil && err != io.EOF {
			return nil, err
		}
		in.size = off + int64(k)
	}
	return in.win[:k], nil
}

// cursor reads an input through a window: buf holds the input bytes from
// pos on, and off is the next one to decode.
type cursor struct {
	in  *input
	buf []byte
	pos int64
	off int
}

// at is the input offset of the cursor.
func (c *cursor) at() int64 { return c.pos + int64(c.off) }

// avail reports how many bytes the window holds past the cursor.
func (c *cursor) avail() int { return len(c.buf) - c.off }

// left reports how many input bytes remain past the cursor.
func (c *cursor) left() int64 { return c.in.size - c.at() }

// last reports whether the window reaches the end of the input.
func (c *cursor) last() bool { return c.pos+int64(len(c.buf)) >= c.in.size }

// seek moves the window to start at the input offset off.
func (c *cursor) seek(off int64) error {
	buf, err := c.in.window(off)
	if err != nil {
		return err
	}
	c.buf, c.pos, c.off = buf, off, 0
	return nil
}

// need makes at least n bytes available at the cursor, or all that remain
// when fewer do.
func (c *cursor) need(n int) error {
	if c.avail() >= n || c.last() {
		return nil
	}
	return c.seek(c.at())
}

// uvarint decodes the uvarint at the cursor, moving the window first if it
// holds less than a full uvarint.
func (c *cursor) uvarint() (uint64, error) {
	if err := c.need(binary.MaxVarintLen64); err != nil {
		return 0, err
	}
	return c.next()
}

// next decodes the uvarint at the cursor from the bytes already in the
// window and steps past it.
func (c *cursor) next() (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	switch {
	case n > 0:
		c.off += n
		return v, nil
	case n == 0:
		return 0, io.ErrUnexpectedEOF
	}
	return 0, errVarintOverflow
}

// skip steps the cursor past the next n bytes below 0x80, eight bytes at a
// time while more than eight remain to find. It reports false when the
// input ends first.
func (c *cursor) skip(n int64) (bool, error) {
	for n > 0 {
		b := c.buf[c.off:]
		i := 0
		for ; n > 8 && i+8 <= len(b); i += 8 {
			w := binary.LittleEndian.Uint64(b[i:])
			n -= int64(bits.OnesCount64(^w & 0x8080808080808080))
		}
		for ; n > 0 && i < len(b); i++ {
			if b[i] < 0x80 {
				n--
			}
		}
		c.off += i
		if n == 0 {
			return true, nil
		}
		if c.last() {
			return false, nil
		}
		if err := c.seek(c.at()); err != nil {
			return false, err
		}
	}
	return true, nil
}

// zigzag maps signed deltas to unsigned varint-friendly values.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
