package trace

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatalf("Kind strings wrong: %s %s", Read, Write)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	p, err := ProfileByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	orig := p.Scaled(0.02).Generate(4, 64, 7)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name {
		t.Fatalf("name %q != %q", got.Name, orig.Name)
	}
	if got.NumCores() != orig.NumCores() {
		t.Fatalf("cores %d != %d", got.NumCores(), orig.NumCores())
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

func TestReadRejectsMalformed(t *testing.T) {
	bad := []string{
		"0 ff R",          // missing gap
		"x ff R 0",        // bad core
		"-1 ff R 0",       // negative core
		"0 zz R 0",        // bad address
		"0 ff X 0",        // bad kind
		"0 ff R -5",       // negative gap
		"0 ff R 0 extras", // too many fields
		"65536 ff R 0",    // more cores than either codec accepts
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line + "\n")); err == nil || !strings.Contains(err.Error(), "line 1:") {
			t.Errorf("line %q: got error %v, want one naming line 1", line, err)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# name demo\n\n# comment\n1 10 W 3\n"
	got, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "demo" {
		t.Fatalf("name = %q", got.Name)
	}
	if got.NumCores() != 2 || len(got.Streams[0]) != 0 || len(got.Streams[1]) != 1 {
		t.Fatalf("unexpected shape: %d cores", got.NumCores())
	}
	a := got.Streams[1][0]
	if a.Addr != 0x10 || a.Kind != Write || a.Gap != 3 {
		t.Fatalf("access = %+v", a)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("radix")
	p = p.Scaled(0.01)
	a := p.Generate(4, 64, 99)
	b := p.Generate(4, 64, 99)
	for c := range a.Streams {
		for i := range a.Streams[c] {
			if a.Streams[c][i] != b.Streams[c][i] {
				t.Fatalf("same seed diverged at core %d idx %d", c, i)
			}
		}
	}
	c := p.Generate(4, 64, 100)
	same := true
	for i := range a.Streams[0] {
		if a.Streams[0][i] != c.Streams[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical stream")
	}
}

func TestGenerateShape(t *testing.T) {
	for _, p := range Profiles() {
		p := p.Scaled(0.05)
		if p.AccessesPerCore > 2000 {
			p.AccessesPerCore = 2000 // keep ocean-sized profiles fast in tests
		}
		tr := p.Generate(4, 64, 1)
		if tr.NumCores() != 4 {
			t.Fatalf("%s: cores = %d", p.Name, tr.NumCores())
		}
		if tr.TotalAccesses() != 4*p.AccessesPerCore {
			t.Fatalf("%s: total = %d, want %d", p.Name, tr.TotalAccesses(), 4*p.AccessesPerCore)
		}
		s := Summarize(tr, 64)
		// Every profile shares data: some lines must be touched by all cores.
		if s.SharedToAll == 0 {
			t.Errorf("%s: no line shared by all cores", p.Name)
		}
		for core, cs := range s.PerCore {
			if cs.Accesses != p.AccessesPerCore {
				t.Errorf("%s core %d: accesses = %d", p.Name, core, cs.Accesses)
			}
			if cs.Writes == 0 || cs.Writes == cs.Accesses {
				t.Errorf("%s core %d: degenerate write mix %d/%d", p.Name, core, cs.Writes, cs.Accesses)
			}
			if cs.SharedRefs == 0 {
				t.Errorf("%s core %d: no shared references", p.Name, core)
			}
		}
	}
}

func TestScaled(t *testing.T) {
	p, _ := ProfileByName("ocean")
	s := p.Scaled(0.001)
	if s.AccessesPerCore != 625 {
		t.Fatalf("Scaled(0.001) accesses = %d, want 625", s.AccessesPerCore)
	}
	// Footprints scale too (with a floor) so reuse-per-line is preserved.
	if s.SharedLines != 8 || s.PrivateLines != 8 {
		t.Fatalf("Scaled(0.001) footprints = %d/%d, want floors 8/8", s.SharedLines, s.PrivateLines)
	}
	h := p.Scaled(0.5)
	if h.SharedLines != 256 || h.PrivateLines != 320 {
		t.Fatalf("Scaled(0.5) footprints = %d/%d, want 256/320", h.SharedLines, h.PrivateLines)
	}
	if got := p.Scaled(0).AccessesPerCore; got != 1 {
		t.Fatalf("Scaled(0) = %d, want 1 (floor)", got)
	}
	// Reuse per line is preserved under scaling (within rounding).
	full := float64(p.AccessesPerCore) / float64(p.SharedLines+p.PrivateLines)
	scaled := float64(h.AccessesPerCore) / float64(h.SharedLines+h.PrivateLines)
	if scaled < full*0.9 || scaled > full*1.1 {
		t.Fatalf("reuse drifted: full %.1f scaled %.1f", full, scaled)
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("doom"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
	names := ProfileNames()
	if len(names) != len(Profiles()) {
		t.Fatal("ProfileNames length mismatch")
	}
	for _, n := range names {
		if _, err := ProfileByName(n); err != nil {
			t.Fatalf("ProfileByName(%q): %v", n, err)
		}
	}
}

func TestAddressRegions(t *testing.T) {
	if !IsShared(SharedAddr(0, 64)) || !IsShared(SharedAddr(1000, 64)) {
		t.Fatal("shared addresses not classified shared")
	}
	if IsShared(PrivateAddr(0, 0, 64)) {
		t.Fatal("private address classified shared")
	}
	// Private regions of different cores must not collide.
	if PrivateAddr(0, 1<<19, 64) >= PrivateAddr(1, 0, 64) {
		t.Fatal("core 0 private region overlaps core 1")
	}
}

// TestCheckScaleRegionBoundary pins CheckScale at the edge of each address
// region: the largest footprint a region holds is accepted and one line more
// is not, at 64-byte lines (1,048,576 private lines per core, 12,582,912
// shared lines), at 128-byte lines, where each region holds half as many,
// and at line sizes where even the eight-line floor does not fit. A trace
// generated at the private boundary keeps every core inside its own region.
func TestCheckScaleRegionBoundary(t *testing.T) {
	const privateLimit, sharedLimit = 1 << 20, 3 << 22
	// Power-of-two line counts and scales keep the products exact.
	priv := Profile{Name: "priv", AccessesPerCore: 1, SharedLines: 8, PrivateLines: 1 << 10}
	shared := Profile{Name: "shared", AccessesPerCore: 1, SharedLines: 3 << 12, PrivateLines: 8}
	cases := []struct {
		p         Profile
		f         float64
		lineBytes int
		want      string // "" accepts
	}{
		{priv, privateLimit >> 10, 64, ""},
		{priv, privateLimit>>10 + 1.0/(1<<10), 64, "1048577 private lines, more than the 1048576"},
		{priv, privateLimit >> 11, 128, ""},
		{priv, privateLimit >> 10, 128, "more than the 524288 its region holds at 128-byte lines"},
		{shared, sharedLimit / (3 << 12), 64, ""},
		{shared, sharedLimit/(3<<12) + 1.0/(1<<12), 64, "12582915 shared lines, more than the 12582912"},
		// Scaled's floor of eight lines counts: 16 MiB lines leave room
		// for four per core.
		{priv, 1.0 / (1 << 10), 1 << 23, ""},
		{priv, 1.0 / (1 << 10), 1 << 24, "8 private lines, more than the 4 its region holds at 16777216-byte lines"},
		{priv, 1e30, 64, "overflows priv's access count"},
		{priv, math.NaN(), 64, "not finite and positive"},
		{priv, math.Inf(1), 64, "not finite and positive"},
		{priv, 0, 64, "not finite and positive"},
		{priv, -1, 64, "not finite and positive"},
	}
	for _, c := range cases {
		err := CheckScale(c.f, c.lineBytes, c.p)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s at scale %v, %d-byte lines: %v", c.p.Name, c.f, c.lineBytes, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s at scale %v, %d-byte lines: err = %v, want %q", c.p.Name, c.f, c.lineBytes, err, c.want)
		}
	}
	// Every profile fits at the largest committed scale, radix at 40.
	if err := CheckScale(40, 64, Profiles()...); err != nil {
		t.Errorf("the suite at scale 40: %v", err)
	}

	wide := priv.Scaled(privateLimit >> 10)
	wide.AccessesPerCore = 4000
	tr := wide.Generate(4, 64, 42)
	for c, st := range tr.Streams {
		lo, hi := PrivateAddr(c, 0, 64), PrivateAddr(c, 0, 64)+privateLimit*64
		for _, a := range st {
			if !IsShared(a.Addr) && (a.Addr < lo || a.Addr >= hi) {
				t.Fatalf("core %d touched private address %#x outside its region [%#x, %#x)", c, a.Addr, lo, hi)
			}
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG with same seed diverged")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(5)
	f := r.Fork()
	if r.Uint64() == f.Uint64() {
		t.Fatal("fork mirrors parent")
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum int64
	for i := 0; i < n; i++ {
		sum += r.Geometric(3)
	}
	mean := float64(sum) / n
	if mean < 2.8 || mean > 3.2 {
		t.Fatalf("Geometric(3) sample mean = %.3f, want ≈ 3", mean)
	}
	if NewRNG(1).Geometric(0) != 0 {
		t.Fatal("Geometric(0) must be 0")
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(3)
	z := NewZipf(100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] <= counts[50] || counts[0] <= counts[99] {
		t.Fatalf("Zipf not skewed: head=%d mid=%d tail=%d", counts[0], counts[50], counts[99])
	}
	// Uniform case: head and tail within 3x of each other.
	u := NewZipf(100, 0)
	counts = make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[u.Sample(r)]++
	}
	if counts[0] > 3*counts[99] || counts[99] > 3*counts[0] {
		t.Fatalf("Zipf(s=0) not uniform-ish: head=%d tail=%d", counts[0], counts[99])
	}
}

// Property: Zipf samples are always in range.
func TestPropertyZipfRange(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		z := NewZipf(n, 0.8)
		r := NewRNG(seed)
		for i := 0; i < 200; i++ {
			if s := z.Sample(r); s < 0 || s >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: codec round-trips arbitrary single-core traces.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(addrs []uint32, writes []bool, gaps []uint8) bool {
		n := len(addrs)
		if len(writes) < n {
			n = len(writes)
		}
		if len(gaps) < n {
			n = len(gaps)
		}
		tr := &Trace{Name: "prop", Streams: make([]Stream, 1)}
		for i := 0; i < n; i++ {
			k := Read
			if writes[i] {
				k = Write
			}
			tr.Streams[0] = append(tr.Streams[0], Access{Addr: uint64(addrs[i]), Kind: k, Gap: int64(gaps[i])})
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Parse(&buf)
		if err != nil {
			return false
		}
		if n == 0 {
			return got.TotalAccesses() == 0
		}
		if len(got.Streams[0]) != n {
			return false
		}
		for i := range got.Streams[0] {
			if got.Streams[0][i] != tr.Streams[0][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSortedLineSet(t *testing.T) {
	s := Stream{
		{Addr: 0x1000}, {Addr: 0x1004}, {Addr: 0x2000}, {Addr: 0x80},
	}
	lines := SortedLineSet(s, 64)
	want := []uint64{0x80 / 64, 0x1000 / 64, 0x2000 / 64}
	if len(lines) != len(want) {
		t.Fatalf("lines = %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("lines = %v, want %v", lines, want)
		}
	}
}

func TestSummaryString(t *testing.T) {
	p, _ := ProfileByName("fft")
	tr := p.Scaled(0.005).Generate(2, 64, 1)
	s := Summarize(tr, 64)
	out := s.String()
	if !strings.Contains(out, "fft") || !strings.Contains(out, "core 0") {
		t.Fatalf("summary missing fields:\n%s", out)
	}

	s = Summary{Name: "demo", DistinctLines: 7, SharedToAll: 2, PerCore: []CoreSummary{
		{Accesses: 10, Writes: 3, SharedRefs: 4, TotalGap: 25, UniqueLines: 5},
		{},
	}}
	want := "trace demo: 2 cores, 7 distinct lines, 2 lines shared by all\n" +
		"  core 0:     10 accesses,  30.0% writes,  40.0% shared, 5 unique lines, mean gap 2.50\n" +
		"  core 1:      0 accesses,   0.0% writes,   0.0% shared, 0 unique lines, mean gap 0.00\n"
	if got := s.String(); got != want {
		t.Fatalf("summary text:\n%s\nwant:\n%s", got, want)
	}

	// The text grows in proportion to the core count, and so must the
	// bytes allocated to build it.
	wide := Summary{Name: "wide", PerCore: make([]CoreSummary, 3000)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out = wide.String()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(len(out)) {
		t.Fatalf("a %d-byte summary of %d cores allocated %d bytes", len(out), len(wide.PerCore), alloc)
	}
}

func BenchmarkGenerateFFT(b *testing.B) {
	p, _ := ProfileByName("fft")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Generate(4, 64, uint64(i))
	}
}

func TestPhasedGeneration(t *testing.T) {
	p, _ := ProfileByName("fft")
	p = p.Scaled(0.05)
	p.Phases = 4
	p.PShared = 0 // isolate the private-footprint rotation
	p.PRepeat = 0
	tr := p.Generate(1, 64, 9)
	s := tr.Streams[0]
	if len(s) != p.AccessesPerCore {
		t.Fatalf("length = %d", len(s))
	}
	// Per-phase private line sets must be (near-)disjoint: the working set
	// rotates.
	quarter := len(s) / 4
	setOf := func(seg Stream) map[uint64]bool {
		m := map[uint64]bool{}
		for _, a := range seg {
			m[a.Addr/64] = true
		}
		return m
	}
	first := setOf(s[:quarter])
	last := setOf(s[3*quarter:])
	overlap := 0
	for l := range first {
		if last[l] {
			overlap++
		}
	}
	if overlap > len(first)/4 {
		t.Fatalf("phase working sets overlap too much: %d of %d", overlap, len(first))
	}
	// Determinism holds with phases.
	tr2 := p.Generate(1, 64, 9)
	for i := range s {
		if s[i] != tr2.Streams[0][i] {
			t.Fatal("phased generation nondeterministic")
		}
	}
	// Phases=0 reproduces the single-phase stream exactly.
	p0 := p
	p0.Phases = 0
	p1 := p
	p1.Phases = 1
	a, b := p0.Generate(1, 64, 9), p1.Generate(1, 64, 9)
	for i := range a.Streams[0] {
		if a.Streams[0][i] != b.Streams[0][i] {
			t.Fatal("Phases 0 and 1 diverge")
		}
	}
}

func TestLambda(t *testing.T) {
	tr := &Trace{Streams: []Stream{{{Addr: 1}}, {{Addr: 1}, {Addr: 2}}}}
	if tr.Lambda(0) != 1 || tr.Lambda(1) != 2 {
		t.Fatalf("Lambda = %d/%d", tr.Lambda(0), tr.Lambda(1))
	}
}
