package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// The parsers feed the parallel evaluation engine: a malformed trace file is
// decoded on a worker goroutine, where a panic would take down the whole
// process instead of failing one cell. The fuzzers assert the crash-free
// property directly; the committed corpus under testdata/fuzz seeds both
// well-formed and adversarial inputs so `go test` replays them on every run.

// fuzzSeedTrace is a small well-formed trace whose binary encoding seeds the
// corpus: multiple cores, both access kinds, non-zero gaps, and address
// deltas in both directions so the zig-zag path is covered.
func fuzzSeedTrace() *Trace {
	return &Trace{
		Name: "fuzz-seed",
		Streams: []Stream{
			{
				{Addr: 0x1000, Kind: Read, Gap: 0},
				{Addr: 0x1040, Kind: Write, Gap: 3},
				{Addr: 0x0fc0, Kind: Read, Gap: 120},
			},
			{
				{Addr: 0xffff_ffff_0000, Kind: Write, Gap: 1},
			},
			{},
		},
	}
}

func FuzzParseBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := fuzzSeedTrace().WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                           // truncated mid-stream
	f.Add([]byte("CTRB\x01"))                                             // header only
	f.Add([]byte("CTRB\x02\x00\x01\x01"))                                 // wrong version
	f.Add([]byte("NOPE\x01\x00\x01\x01"))                                 // bad magic
	f.Add([]byte{})                                                       // empty
	f.Add([]byte("CTRB\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")) // huge core count

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseBinary(bytes.NewReader(data))
		// The sequential decoder is the reference: the same trace, or the
		// same error text.
		ref, refErr := parseBinarySequential(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(tr, ref) {
			t.Fatalf("got (%v, %v), the sequential decoder (%v, %v)", tr != nil, err, ref != nil, refErr)
		}
		// One-byte reads, read whole with or without a Len method, must
		// decode exactly as the *bytes.Reader does through its window.
		for _, r := range []io.Reader{
			iotest.OneByteReader(bytes.NewReader(data)),
			sizedReader{iotest.OneByteReader(bytes.NewReader(data)), len(data)},
		} {
			tr2, err2 := ParseBinary(r)
			if fmt.Sprint(err2) != fmt.Sprint(err) || !reflect.DeepEqual(tr2, tr) {
				t.Fatalf("%T: got (%v, %v), bytes.Reader got (%v, %v)", r, tr2 != nil, err2, tr != nil, err)
			}
		}
		if err != nil {
			return
		}
		// A successful parse must round-trip: re-encoding and re-parsing
		// yields the same trace, and no gap may have wrapped negative.
		for c, s := range tr.Streams {
			for i, a := range s {
				if a.Gap < 0 {
					t.Fatalf("core %d access %d: negative gap %d survived parsing", c, i, a.Gap)
				}
			}
		}
		var out bytes.Buffer
		if err := tr.WriteBinary(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		tr2, err := ParseBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if tr.Name != tr2.Name || len(tr.Streams) != len(tr2.Streams) {
			t.Fatalf("round-trip mismatch: %q/%d vs %q/%d",
				tr.Name, len(tr.Streams), tr2.Name, len(tr2.Streams))
		}
	})
}

func FuzzParse(f *testing.F) {
	f.Add("# name x\n3000000000 2000 W 1\n0 40 R 0\n") // core index far past any platform
	f.Add("# name two\n0 1000 R 0\n1 1040 W 3\n0 fc0 R 120\n")
	f.Add("0 1000 R -4\n")  // negative gap
	f.Add("0 1000 X 0\n")   // bad kind
	f.Add("0 1000 R 0 9\n") // five fields

	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		if tr.NumCores() > maxCores {
			t.Fatalf("parsed %d cores, at most %d", tr.NumCores(), maxCores)
		}
		// A parsed trace round-trips through the text codec.
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		tr2, err := Parse(&out)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip changed the trace: %+v, then %+v", tr, tr2)
		}
	})
}

func FuzzParseDinero(f *testing.F) {
	f.Add("0 1000\n1 1008\n2 2000\n")
	f.Add("# comment\n-trailer\n\n0 0x1000 extra fields 99\n")
	f.Add("3 1000\n")      // unknown access type
	f.Add("0 zzzz\n")      // bad hex address
	f.Add("justoneword\n") // too few fields
	f.Add("0 ffffffffffffffff\n")
	f.Add("0 10000000000000000\n") // address overflows uint64
	f.Add("")

	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseDinero(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, a := range s {
			if a.Kind != Read && a.Kind != Write {
				t.Fatalf("access %d: invalid kind %d", i, a.Kind)
			}
			if a.Gap != 0 {
				t.Fatalf("access %d: din format carries no gaps, got %d", i, a.Gap)
			}
		}
	})
}
