package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cohort/internal/config"
	"cohort/internal/trace"
)

// slowInput is an encoded trace read at any offset, as a file is. Once a
// read has reached the end of the data — the section search is done —
// every later read, one decode window each, first sleeps for delay.
type slowInput struct {
	data     []byte
	delay    time.Duration
	searched bool
}

func (r *slowInput) ReadAt(p []byte, off int64) (int, error) {
	if r.searched {
		time.Sleep(r.delay)
	}
	n := copy(p, r.data[off:])
	if off+int64(n) == int64(len(r.data)) {
		r.searched = true
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (r *slowInput) Read([]byte) (int, error) { return 0, errors.New("slowInput: read sequentially") }
func (r *slowInput) Size() int64              { return int64(len(r.data)) }
func (r *slowInput) Len() int                 { return len(r.data) }

// wideTrace is a 4-core workload on a small shared footprint whose
// accesses encode to about 13 bytes each: every address jumps 2^62 between
// two regions. Each core's section spans several 64 KiB decode windows.
func wideTrace(t *testing.T) (*trace.Trace, []byte) {
	t.Helper()
	rng := trace.NewRNG(20)
	tr := &trace.Trace{Name: "wide", Streams: make([]trace.Stream, 4)}
	for c := range tr.Streams {
		s := make(trace.Stream, 16_000)
		for i := range s {
			s[i] = trace.Access{
				Addr: uint64(i%2)<<62 + uint64(rng.Intn(64))*64,
				Kind: trace.Kind(rng.Intn(4) / 3),
				Gap:  int64(rng.Intn(2000)),
			}
		}
		tr.Streams[c] = s
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 4*3*(64<<10) {
		t.Fatalf("encoding is %d bytes, want three 64 KiB windows per core", buf.Len())
	}
	return tr, buf.Bytes()
}

// follow builds a system on enc as it decodes, each window delayed.
func follow(t *testing.T, cfg *config.System, enc []byte, delay time.Duration) *System {
	t.Helper()
	d, err := trace.DecodeBinary(&slowInput{data: enc, delay: delay})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, d.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Follow(d); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFollowMatchesParsedTrace runs a trace while it decodes, each decode
// window slowed so that the run overtakes the decode and waits for it at
// window boundaries, and compares the result with a run on the whole trace.
// The two must be equal, at GOMAXPROCS 1 and 2.
func TestFollowMatchesParsedTrace(t *testing.T) {
	tr, enc := wideTrace(t)
	cfg := cfgN(4, 300, 100, 0, config.TimerMSI)
	ref, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			sys := follow(t, cfg, enc, 20*time.Millisecond)
			got, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run while decoding differs from the run on the whole trace:\n%s\nvs\n%s", got, want)
			}
			if err := sys.CheckCoherence(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFollowDecodeError cuts a trace inside its last core's section, so
// the run is under way when the decode meets the cut. Run must fail with
// the error ParseBinary gives for the same bytes, at the cycle it met it.
func TestFollowDecodeError(t *testing.T) {
	tr, enc := wideTrace(t)
	cut := enc[:len(enc)-100]
	_, want := trace.ParseBinary(bytes.NewReader(cut))
	if want == nil || !strings.Contains(want.Error(), "core 3 access") {
		t.Fatalf("ParseBinary of the cut trace: %v, want an error in core 3", want)
	}
	cfg := cfgN(4, 300, 100, 0, config.TimerMSI)
	ref, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	sys := follow(t, cfg, cut, time.Millisecond)
	run, err := sys.Run()
	if run != nil || fmt.Sprint(err) != want.Error() {
		t.Fatalf("Run = (%v, %v), want (nil, %v)", run != nil, err, want)
	}
	if now := int64(sys.eng.Now()); now >= whole.Cycles {
		t.Fatalf("the run went on to cycle %d; the whole trace ends at %d", now, whole.Cycles)
	}
}
