package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseBinary(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("huge access count accepted: %v", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
		t.Fatalf("rejecting a huge access count allocated %d bytes", d)
	}
}

// TestBinaryDecodeAllocation bounds what one decode allocates by twice the
// encoded input plus the decoded streams: the input is read once and each
// stream is allocated once, at its declared length.
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
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := ParseBinary(bytes.NewReader(enc))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Streams, []Stream{s}) {
		t.Fatal("decoded stream differs from the encoded one")
	}
	size := uint64(len(enc)) + uint64(unsafe.Sizeof(Access{}))*n
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > 2*size {
		t.Fatalf("decode allocated %d bytes, %.2fx the %d encoded + decoded bytes (limit 2x)", alloc, float64(alloc)/float64(size), size)
	}
	t.Logf("decode allocated %d bytes, %.2fx the %d encoded + decoded bytes", alloc, float64(alloc)/float64(size), size)
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
