package experiments

import (
	"testing"

	"cohort/internal/parallel"
	"cohort/internal/trace"
)

// bufferedFingerprint is the trace digest as a buffered parallel.Key
// computes it: the framing traceFingerprint streams through SHA-256.
func bufferedFingerprint(tr *trace.Trace) string {
	k := parallel.NewKey("experiments/trace")
	k.Str(tr.Name)
	k.Int(len(tr.Streams))
	for _, s := range tr.Streams {
		k.Int(len(s))
		for _, a := range s {
			k.Uint64(a.Addr)
			k.Int64(int64(a.Kind))
			k.Int64(a.Gap)
		}
	}
	return k.Sum()
}

// TestTraceFingerprintMatchesBufferedKey pins the streamed digest to the
// buffered one, so memo keys and the manifests' traces[].fingerprint values
// do not move. The profiles are long enough to span several flushes of
// trace.HashStream's buffer.
func TestTraceFingerprintMatchesBufferedKey(t *testing.T) {
	for _, name := range []string{"fft", "radix", "water"} {
		p, err := trace.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{42, 7777} {
			tr := p.Scaled(0.01).Generate(4, 64, seed)
			if got, want := traceFingerprint(tr), bufferedFingerprint(tr); got != want {
				t.Errorf("%s seed %d: streamed digest differs from the buffered key", name, seed)
			}
		}
	}
	tr := &trace.Trace{Name: "gappy", Streams: []trace.Stream{
		{{Addr: 0x40, Kind: trace.Write, Gap: 3}},
		{},
		{{Addr: 0x80}, {Addr: 0xc0, Kind: trace.Write, Gap: 1 << 40}},
	}}
	if got, want := traceFingerprint(tr), bufferedFingerprint(tr); got != want {
		t.Error("trace with an empty stream: streamed digest differs from the buffered key")
	}
}

// TestTraceMemo checks that the trace memo shares one trace per set of
// generating parameters, keeps distinct parameters apart, and starts over
// after ResetMemo.
func TestTraceMemo(t *testing.T) {
	ResetMemo()
	t.Cleanup(ResetMemo)
	o := QuickOptions()
	gen := func(o Options) *trace.Trace {
		p, err := o.profile("fft")
		if err != nil {
			t.Fatal(err)
		}
		return o.generate(p)
	}
	base := gen(o)
	if gen(o) != base {
		t.Fatal("equal parameters generated a second trace")
	}
	if generated, reused := TraceMemoStats(); generated != 1 || reused != 1 {
		t.Fatalf("memo stats (generated %d, reused %d), want (1, 1)", generated, reused)
	}
	for _, c := range []struct {
		what   string
		change func(*Options)
	}{
		{"core count", func(o *Options) { o.NCores = 2 }},
		{"scale", func(o *Options) { o.Scale *= 2 }},
		{"seed", func(o *Options) { o.Seed++ }},
	} {
		v := o
		c.change(&v)
		if gen(v) == base {
			t.Errorf("a different %s returned the memoized trace", c.what)
		}
	}
	ResetMemo()
	fresh := gen(o)
	if fresh == base {
		t.Fatal("ResetMemo kept the memoized trace")
	}
	if traceFingerprint(fresh) != traceFingerprint(base) {
		t.Fatal("regenerated trace differs in content")
	}
	if generated, reused := TraceMemoStats(); generated != 1 || reused != 0 {
		t.Fatalf("memo stats after reset (generated %d, reused %d), want (1, 0)", generated, reused)
	}

	// The scalability runner generates through the same memo.
	ResetMemo()
	if _, err := ExtensionScalability(o, "fft", 50, []int{o.NCores}); err != nil {
		t.Fatal(err)
	}
	gen(o)
	if generated, reused := TraceMemoStats(); generated != 1 || reused != 1 {
		t.Fatalf("memo stats after the scalability runner (generated %d, reused %d), want (1, 1)", generated, reused)
	}
}

// TestTraceMemoConcurrent requests two traces from many goroutines at once,
// as runners do at -j N: every caller gets the content Profile.Generate
// produces, and every request is counted once.
func TestTraceMemoConcurrent(t *testing.T) {
	ResetMemo()
	t.Cleanup(ResetMemo)
	o := QuickOptions()
	p, err := o.profile("fft")
	if err != nil {
		t.Fatal(err)
	}
	cores := func(i int) int { return o.NCores + i%2 }
	want := []string{
		traceFingerprint(p.Generate(cores(0), 64, o.Seed)),
		traceFingerprint(p.Generate(cores(1), 64, o.Seed)),
	}
	const callers = 16
	got := parallel.Map(callers, callers, func(i int) *trace.Trace {
		return generateTrace(p, cores(i), 64, o.Seed)
	})
	for i, tr := range got {
		if traceFingerprint(tr) != want[i%2] {
			t.Fatalf("caller %d got a trace with different content", i)
		}
	}
	if generated, reused := TraceMemoStats(); generated+reused != callers || generated < 2 {
		t.Fatalf("memo stats (generated %d, reused %d) for %d requests of 2 traces", generated, reused, callers)
	}
}
