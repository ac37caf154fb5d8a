package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"unsafe"
)

// sizedReader gives any reader a Len method. Without ReadAt it is still
// read whole: only an input that can be read at any offset is decoded
// through a window.
type sizedReader struct {
	io.Reader
	n int
}

func (r sizedReader) Len() int { return r.n }

// readerAt is an input read at any offset, as a file is, that claims size
// bytes whatever data holds. With fail > 0, every read after the first
// fail times out. It records the largest read it was asked for, and
// refuses to be read sequentially.
type readerAt struct {
	data  []byte
	size  int
	fail  int
	reads int
	most  int
}

func (r *readerAt) ReadAt(p []byte, off int64) (int, error) {
	r.reads++
	r.most = max(r.most, len(p))
	if r.fail > 0 && r.reads > r.fail {
		return 0, iotest.ErrTimeout
	}
	if off >= int64(len(r.data)) {
		return 0, io.EOF
	}
	n := copy(p, r.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (r *readerAt) Read([]byte) (int, error) { return 0, errors.New("readerAt: read sequentially") }
func (r *readerAt) Size() int64              { return int64(r.size) }
func (r *readerAt) Len() int                 { return r.size }

// parseBinarySequential is ParseBinary as it was before sections were
// decoded round-robin: one pass in file order through one window, each
// stream decoded whole before the next count is read. It is the reference
// FuzzParseBinary holds ParseBinary to, traces and error texts alike.
func parseBinarySequential(r io.Reader) (*Trace, error) {
	d, err := newSeqDecoder(r)
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
	if nCores > maxCores {
		return nil, fmt.Errorf("trace: implausible core count %d", nCores)
	}
	t := &Trace{Name: name, Streams: make([]Stream, nCores)}
	for c := range t.Streams {
		count, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: core %d count: %w", c, err)
		}
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

// seqDecoder is parseBinarySequential's read cursor: buf[off:end] holds the
// input bytes not yet decoded, and rest more wait in r.
type seqDecoder struct {
	r        io.Reader
	buf      []byte
	off, end int
	rest     int64
}

func newSeqDecoder(r io.Reader) (*seqDecoder, error) {
	if v, ok := r.(interface{ Len() int }); ok {
		size := int64(v.Len())
		return &seqDecoder{r: r, buf: make([]byte, min(size, windowBytes)), rest: size}, nil
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return &seqDecoder{buf: data, end: len(data)}, nil
}

func (d *seqDecoder) left() int64 { return int64(d.end-d.off) + d.rest }

func (d *seqDecoder) need(n int) error {
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
		d.rest = 0
	case err != nil:
		return err
	}
	return nil
}

func (d *seqDecoder) uvarint() (uint64, error) {
	if err := d.need(binary.MaxVarintLen64); err != nil {
		return 0, err
	}
	return d.next()
}

func (d *seqDecoder) next() (uint64, error) {
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

// windowTrace returns a two-core trace whose encoding spans several decode
// windows. Address deltas and gaps take every varint width from 1 to 10
// bytes, so accesses run 3 to 21 bytes long and window refills fall inside
// accesses and inside their varints.
func windowTrace() *Trace {
	rng := NewRNG(16)
	tr := &Trace{Name: "window", Streams: make([]Stream, 2)}
	for c := range tr.Streams {
		s := make(Stream, 40_000)
		for i := range s {
			s[i] = Access{
				Addr: rng.Uint64() >> rng.Intn(64),
				Kind: Kind(rng.Intn(2)),
				Gap:  int64(rng.Uint64() >> (1 + rng.Intn(63))),
			}
		}
		tr.Streams[c] = s
	}
	return tr
}

// writeFile writes data to a fresh file in the test's temporary directory
// and opens it for reading.
func writeFile(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.ctrb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestBinaryRoundTrip(t *testing.T) {
	p, _ := ProfileByName("radix")
	orig := p.Scaled(0.02).Generate(4, 64, 77)
	var buf bytes.Buffer
	if err := orig.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.NumCores() != orig.NumCores() {
		t.Fatalf("header mismatch: %q/%d", got.Name, got.NumCores())
	}
	for c := range orig.Streams {
		if len(got.Streams[c]) != len(orig.Streams[c]) {
			t.Fatalf("core %d length mismatch", c)
		}
		for i := range orig.Streams[c] {
			if got.Streams[c][i] != orig.Streams[c][i] {
				t.Fatalf("core %d access %d: %+v != %+v", c, i, got.Streams[c][i], orig.Streams[c][i])
			}
		}
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	p, _ := ProfileByName("fft")
	tr := p.Scaled(0.05).Generate(4, 64, 1)
	var text, bin bytes.Buffer
	if err := tr.Write(&text); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= text.Len()/2 {
		t.Fatalf("binary %d not substantially smaller than text %d", bin.Len(), text.Len())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("CTR"),
		[]byte("XXXX\x01"),
		[]byte("CTRB\x09"),     // bad version
		[]byte("CTRB\x01\xff"), // truncated name length varint
	}
	for i, in := range cases {
		if _, err := ParseBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Implausible counts are rejected rather than allocated.
	var buf bytes.Buffer
	buf.WriteString("CTRB\x01")
	buf.WriteByte(0)                                            // empty name
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge core count
	if _, err := ParseBinary(&buf); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("huge core count accepted: %v", err)
	}
	// So is an access count the remaining bytes cannot hold, before the
	// stream is allocated.
	in := binary.AppendUvarint([]byte("CTRB\x01\x00\x01"), 1<<31-1) // empty name, one core
	in = append(in, 0, 2, 0, 1, 4, 0)                               // two accesses' worth
	// The same through a file, whose size comes from Stat.
	f := writeFile(t, in)
	for _, r := range []io.Reader{bytes.NewReader(in), f} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseBinary(r)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Fatalf("%T: huge access count accepted: %v", r, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
			t.Fatalf("%T: rejecting a huge access count allocated %d bytes", r, d)
		}
	}
}

// TestBinaryWindowEdges decodes a trace several windows long through every
// kind of input: read at any offset (a file, a *bytes.Reader, a readerAt)
// and sequential (readers from testing/iotest, with or without a Len
// method, read whole). All must yield the trace that was encoded.
func TestBinaryWindowEdges(t *testing.T) {
	want := windowTrace()
	var buf bytes.Buffer
	if err := want.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	if len(enc) < 4*windowBytes {
		t.Fatalf("encoding is %d bytes, want at least four %d-byte windows", len(enc), windowBytes)
	}
	inputs := []struct {
		name string
		r    func() io.Reader
	}{
		{"file", func() io.Reader { return writeFile(t, enc) }},
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(enc) }},
		{"ReaderAt", func() io.Reader { return &readerAt{data: enc, size: len(enc)} }},
		{"sized/OneByteReader", func() io.Reader { return sizedReader{iotest.OneByteReader(bytes.NewReader(enc)), len(enc)} }},
		{"sized/HalfReader", func() io.Reader { return sizedReader{iotest.HalfReader(bytes.NewReader(enc)), len(enc)} }},
		{"sized/DataErrReader", func() io.Reader { return sizedReader{iotest.DataErrReader(bytes.NewReader(enc)), len(enc)} }},
		{"OneByteReader", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(enc)) }},
		{"HalfReader", func() io.Reader { return iotest.HalfReader(bytes.NewReader(enc)) }},
		{"DataErrReader", func() io.Reader { return iotest.DataErrReader(bytes.NewReader(enc)) }},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			got, err := ParseBinary(in.r())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("decoded trace differs from the encoded one")
			}
		})
	}
}

// TestBinaryReadFailures feeds ParseBinary inputs that fail part way:
// readers that time out after their first read, and files cut off inside
// an access or shorter than their size. Each must return an error, read
// at any offset or not.
func TestBinaryReadFailures(t *testing.T) {
	var buf bytes.Buffer
	if err := windowTrace().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	// Cut inside an access near the end: a flags byte survives, its varints
	// do not.
	cut := enc[:len(enc)-5]
	inputs := []struct {
		name string
		r    func() io.Reader
		want error
	}{
		{"TimeoutReader", func() io.Reader { return iotest.TimeoutReader(bytes.NewReader(enc)) }, iotest.ErrTimeout},
		{"sized/TimeoutReader", func() io.Reader { return sizedReader{iotest.TimeoutReader(bytes.NewReader(enc)), len(enc)} }, iotest.ErrTimeout},
		{"truncated file", func() io.Reader { return writeFile(t, cut) }, io.ErrUnexpectedEOF},
		{"truncated OneByteReader", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(cut)) }, io.ErrUnexpectedEOF},
		{"file shorter than its size", func() io.Reader { return &readerAt{data: cut, size: len(enc)} }, io.ErrUnexpectedEOF},
		{"ReaderAt/TimeoutReader", func() io.Reader { return &readerAt{data: enc, size: len(enc), fail: 1} }, iotest.ErrTimeout},
		{"ReaderAt/timeout while decoding", func() io.Reader {
			return &readerAt{data: enc, size: len(enc), fail: (len(enc) + windowBytes - 1) / windowBytes}
		}, iotest.ErrTimeout},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			tr, err := ParseBinary(in.r())
			if !errors.Is(err, in.want) {
				t.Fatalf("got trace %v, error %v; want error %v", tr != nil, err, in.want)
			}
		})
	}
}

// accessOffsets returns the input offset of every access of tr's binary
// encoding, per core.
func accessOffsets(tr *Trace) [][]int {
	var buf [binary.MaxVarintLen64]byte
	off := len(binaryMagic) + 1 + binary.PutUvarint(buf[:], uint64(len(tr.Name))) + len(tr.Name) +
		binary.PutUvarint(buf[:], uint64(len(tr.Streams)))
	out := make([][]int, len(tr.Streams))
	for c, s := range tr.Streams {
		off += binary.PutUvarint(buf[:], uint64(len(s)))
		prev := uint64(0)
		for _, a := range s {
			out[c] = append(out[c], off)
			off += 1 + binary.PutUvarint(buf[:], zigzag(int64(a.Addr)-int64(prev))) + binary.PutUvarint(buf[:], uint64(a.Gap))
			prev = a.Addr
		}
	}
	return out
}

// TestBinaryErrorOrder damages a trace whose sections span several
// windows. Sections are decoded round-robin, so a later section's damage
// can be met first; the error reported must still be the first in file
// order, with the text the sequential decoder gives, from memory and from
// a file alike.
func TestBinaryErrorOrder(t *testing.T) {
	tr := windowTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	at := accessOffsets(tr)
	late, early := len(tr.Streams[0])-10, 10
	damaged := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(enc)) }
	tests := []struct {
		name string
		in   []byte
		want string
	}{
		{"bad flags early in core 1", damaged(func(b []byte) []byte { b[at[1][early]] = 5; return b }),
			fmt.Sprintf("core 1 access %d bad flags", early)},
		{"bad flags late in core 0 and early in core 1", damaged(func(b []byte) []byte {
			b[at[0][late]], b[at[1][early]] = 5, 5
			return b
		}), fmt.Sprintf("core 0 access %d bad flags", late)},
		{"overlong address late in core 0", damaged(func(b []byte) []byte {
			copy(b[at[0][late]+1:], bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64))
			return b
		}), fmt.Sprintf("core 0 access %d addr: %v", late, errVarintOverflow)},
		{"cut inside core 1", enc[:at[1][late]+1], fmt.Sprintf("core 1 access %d addr: %v", late, io.ErrUnexpectedEOF)},
		{"cut inside core 0", enc[:at[0][late]], fmt.Sprintf("core 0 access %d flags: %v", late, io.ErrUnexpectedEOF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, want := parseBinarySequential(bytes.NewReader(tt.in))
			if want == nil || !strings.Contains(want.Error(), tt.want) {
				t.Fatalf("sequential decoder: %v, want %q", want, tt.want)
			}
			for _, r := range []io.Reader{bytes.NewReader(tt.in), writeFile(t, tt.in)} {
				if tr, err := ParseBinary(r); fmt.Sprint(err) != want.Error() {
					t.Errorf("%T: got trace %v, error %v; want %v", r, tr != nil, err, want)
				}
			}
		})
	}
}

// TestBinaryWindowBound decodes traces of 1, 4 and 64 cores from inputs
// read at any offset, a readerAt and a file. No read asks for more than one
// 64 KiB window, and what the decode allocates besides the streams is one
// window and a small constant, whatever the core count.
func TestBinaryWindowBound(t *testing.T) {
	const total = 1 << 18 // accesses; every core's stream is whole pages
	for _, cores := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("%d cores", cores), func(t *testing.T) {
			want := &Trace{Name: "bound", Streams: make([]Stream, cores)}
			for c := range want.Streams {
				s := make(Stream, total/cores)
				for i := range s {
					s[i] = Access{Addr: uint64(c)<<20 + uint64(i*7919%512)*64, Kind: Kind(i % 3 / 2), Gap: int64(i % 13)}
				}
				want.Streams[c] = s
			}
			var buf bytes.Buffer
			if err := want.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() < 4*windowBytes {
				t.Fatalf("encoding is %d bytes, want at least four %d-byte windows", buf.Len(), windowBytes)
			}
			r := &readerAt{data: buf.Bytes(), size: buf.Len()}
			decoded := uint64(unsafe.Sizeof(Access{})) * total
			// slack covers the Trace and its stream headers, the per-core
			// section records and counts, the name, the decoder and a
			// file's Stat.
			const slack = 16 << 10
			for _, in := range []io.Reader{r, writeFile(t, buf.Bytes())} {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				got, err := ParseBinary(in)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%T: decoded trace differs from the encoded one", in)
				}
				extra := after.TotalAlloc - before.TotalAlloc - decoded
				if extra > windowBytes+slack {
					t.Errorf("%T: decode allocated %d bytes besides the %d-byte streams, limit %d", in, extra, decoded, windowBytes+slack)
				}
				t.Logf("%T: decode allocated %d bytes besides the %d-byte streams, limit %d", in, extra, decoded, windowBytes+slack)
			}
			if r.most > windowBytes {
				t.Errorf("a read asked for %d bytes, more than one %d-byte window", r.most, windowBytes)
			}
		})
	}
}

// TestBinaryDecodeAllocation bounds what one decode allocates. A sized
// input — a *bytes.Reader or a file — costs the decoded streams, one window
// and a small constant: the encoded bytes are never held whole. An unsized
// input is read whole first, so it may cost up to twice the encoded input
// plus the decoded streams. Each stream is allocated once, at its declared
// length.
func TestBinaryDecodeAllocation(t *testing.T) {
	const n = 300_000
	s := make(Stream, n)
	for i := range s {
		s[i] = Access{Addr: 0x10000 + uint64(i*7919%4096)*64, Kind: Kind(i % 3 / 2), Gap: int64(i % 13)}
	}
	var buf bytes.Buffer
	if err := (&Trace{Name: "alloc", Streams: []Stream{s}}).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	decoded := uint64(unsafe.Sizeof(Access{})) * n
	// slack covers the Trace, its stream headers, the name, the decoder, a
	// file's Stat, and the allocator rounding the stream up to whole pages.
	const slack = 16 << 10
	inputs := []struct {
		name  string
		r     func() io.Reader
		limit uint64
	}{
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(enc) }, decoded + windowBytes + slack},
		{"file", func() io.Reader { return writeFile(t, enc) }, decoded + windowBytes + slack},
		{"unsized", func() io.Reader { return iotest.HalfReader(bytes.NewReader(enc)) }, 2 * (uint64(len(enc)) + decoded)},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			r := in.r()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			got, err := ParseBinary(r)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Streams, []Stream{s}) {
				t.Fatal("decoded stream differs from the encoded one")
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			if alloc > in.limit {
				t.Fatalf("decode allocated %d bytes, limit %d (%d decoded, %d encoded)", alloc, in.limit, decoded, len(enc))
			}
			t.Logf("decode allocated %d bytes, limit %d (%d decoded, %d encoded)", alloc, in.limit, decoded, len(enc))
		})
	}
}

// Property: binary codec round-trips arbitrary streams, including large
// addresses and gaps.
func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(addrs []uint64, writes []bool, gaps []uint16, name string) bool {
		n := len(addrs)
		if len(writes) < n {
			n = len(writes)
		}
		if len(gaps) < n {
			n = len(gaps)
		}
		if len(name) > 100 {
			name = name[:100]
		}
		tr := &Trace{Name: name, Streams: make([]Stream, 2)}
		for i := 0; i < n; i++ {
			k := Read
			if writes[i] {
				k = Write
			}
			tr.Streams[i%2] = append(tr.Streams[i%2], Access{Addr: addrs[i], Kind: k, Gap: int64(gaps[i])})
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ParseBinary(&buf)
		if err != nil {
			return false
		}
		if got.Name != tr.Name || got.NumCores() != 2 {
			return false
		}
		for c := range tr.Streams {
			if len(got.Streams[c]) != len(tr.Streams[c]) {
				return false
			}
			for i := range tr.Streams[c] {
				if got.Streams[c][i] != tr.Streams[c][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parse (text) never panics on arbitrary input — it returns an
// error or a trace.
func TestPropertyTextParseNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("Parse panicked on %q", raw)
			}
		}()
		_, _ = Parse(bytes.NewReader(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ParseBinary never panics on arbitrary input.
func TestPropertyBinaryParseNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("ParseBinary panicked on %x", raw)
			}
		}()
		_, _ = ParseBinary(bytes.NewReader(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// And on inputs that start with a valid header.
	g := func(raw []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("ParseBinary panicked on CTRB+%x", raw)
			}
		}()
		in := append([]byte("CTRB\x01"), raw...)
		_, _ = ParseBinary(bytes.NewReader(in))
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), -9223372036854775808, 9223372036854775807} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag round trip: %d -> %d", v, got)
		}
	}
}

func BenchmarkBinaryEncode(b *testing.B) {
	p, _ := ProfileByName("fft")
	tr := p.Scaled(0.1).Generate(4, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryDecode(b *testing.B) {
	p, _ := ProfileByName("fft")
	tr := p.Scaled(0.1).Generate(4, 64, 1)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseDinero(t *testing.T) {
	in := `# a comment
0 1000
1 0x1040
2 2000
- another comment

0 1080 extra fields ignored
`
	s, err := ParseDinero(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Stream{
		{Addr: 0x1000, Kind: Read},
		{Addr: 0x1040, Kind: Write},
		{Addr: 0x2000, Kind: Read}, // ifetch imported as read
		{Addr: 0x1080, Kind: Read},
	}
	if len(s) != len(want) {
		t.Fatalf("len = %d, want %d", len(s), len(want))
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("access %d = %+v, want %+v", i, s[i], want[i])
		}
	}
}

func TestParseDineroRejectsMalformed(t *testing.T) {
	for _, in := range []string{"3 1000", "0", "0 zz"} {
		if _, err := ParseDinero(strings.NewReader(in)); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
}

func TestFromStreamsRunsInSimulator(t *testing.T) {
	// A Dinero-imported multi-core trace must be a first-class workload.
	a, err := ParseDinero(strings.NewReader("1 1000\n0 1000\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseDinero(strings.NewReader("1 1000\n"))
	if err != nil {
		t.Fatal(err)
	}
	tr := FromStreams("din-import", a, b)
	if tr.NumCores() != 2 || tr.TotalAccesses() != 3 {
		t.Fatalf("shape: %d cores %d accesses", tr.NumCores(), tr.TotalAccesses())
	}
}
