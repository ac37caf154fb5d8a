package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Profile parameterizes the synthetic workload generator. Each profile is
// shaped after one SPLASH-2 benchmark used in the paper's evaluation: the
// request counts follow the paper (§VIII quotes ~47 k requests for fft and
// ~2.5 M for ocean) and the sharing/locality knobs encode the qualitative
// behaviour that drives coherence traffic.
type Profile struct {
	// Name is the benchmark label.
	Name string
	// AccessesPerCore is Λ_i at Scale = 1.
	AccessesPerCore int
	// SharedLines is the hot shared footprint, in cache lines, contended by
	// all cores.
	SharedLines int
	// PrivateLines is the per-core private footprint, in cache lines.
	PrivateLines int
	// PShared is the probability that an access targets the shared region.
	PShared float64
	// ZipfS skews shared-line popularity (0 = uniform).
	ZipfS float64
	// PWrite is the probability that an access is a store.
	PWrite float64
	// PRepeat is the probability that an access re-uses one of the core's
	// RepeatWindow most recent lines (temporal locality).
	PRepeat float64
	// RepeatWindow is the size of the recency window.
	RepeatWindow int
	// MeanGap is the mean compute gap between consecutive accesses.
	MeanGap float64
	// Phases optionally splits each core's stream into this many phases;
	// each phase works in a rotated window of the shared footprint and a
	// distinct slice of the private footprint, modeling the working-set
	// turnover of blocked kernels (FFT stages, LU panels). 0 or 1 keeps the
	// single-phase behaviour.
	Phases int
}

// Profiles returns the full benchmark suite in a fixed order.
func Profiles() []Profile {
	return []Profile{
		{Name: "fft", AccessesPerCore: 12000, SharedLines: 256, PrivateLines: 320, PShared: 0.35, ZipfS: 0.6, PWrite: 0.40, PRepeat: 0.70, RepeatWindow: 4, MeanGap: 1, Phases: 12},
		{Name: "lu", AccessesPerCore: 16000, SharedLines: 192, PrivateLines: 384, PShared: 0.30, ZipfS: 0.7, PWrite: 0.45, PRepeat: 0.75, RepeatWindow: 6, MeanGap: 1, Phases: 8},
		{Name: "radix", AccessesPerCore: 20000, SharedLines: 384, PrivateLines: 512, PShared: 0.45, ZipfS: 0.4, PWrite: 0.55, PRepeat: 0.55, RepeatWindow: 4, MeanGap: 1, Phases: 4},
		{Name: "ocean", AccessesPerCore: 625000, SharedLines: 512, PrivateLines: 640, PShared: 0.30, ZipfS: 0.5, PWrite: 0.40, PRepeat: 0.70, RepeatWindow: 6, MeanGap: 1, Phases: 8},
		{Name: "barnes", AccessesPerCore: 30000, SharedLines: 320, PrivateLines: 448, PShared: 0.40, ZipfS: 0.9, PWrite: 0.30, PRepeat: 0.70, RepeatWindow: 6, MeanGap: 2, Phases: 4},
		{Name: "water", AccessesPerCore: 24000, SharedLines: 128, PrivateLines: 288, PShared: 0.25, ZipfS: 0.8, PWrite: 0.35, PRepeat: 0.75, RepeatWindow: 8, MeanGap: 2, Phases: 8},
		{Name: "cholesky", AccessesPerCore: 18000, SharedLines: 224, PrivateLines: 416, PShared: 0.35, ZipfS: 0.75, PWrite: 0.50, PRepeat: 0.70, RepeatWindow: 6, MeanGap: 1, Phases: 8},
		{Name: "raytrace", AccessesPerCore: 26000, SharedLines: 448, PrivateLines: 352, PShared: 0.50, ZipfS: 1.0, PWrite: 0.20, PRepeat: 0.60, RepeatWindow: 4, MeanGap: 2, Phases: 2},
	}
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown profile %q", name)
}

// ProfileNames lists the suite in order.
func ProfileNames() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// Scaled returns a copy with the per-core access count and the shared and
// private footprints multiplied by f (with floors), preserving the
// accesses-per-line reuse that makes the benchmark's locality meaningful:
// scaling only the access count would starve every line of re-references and
// no timer value could protect hits.
func (p Profile) Scaled(f float64) Profile {
	scale := func(v, floor int) int {
		n := int(float64(v) * f)
		if n < floor {
			n = floor
		}
		return n
	}
	p.AccessesPerCore = scale(p.AccessesPerCore, 1)
	p.SharedLines = scale(p.SharedLines, 8)
	p.PrivateLines = scale(p.PrivateLines, 8)
	return p
}

// CheckScale reports whether Scaled(f) of every profile in ps is a workload
// Generate can lay out at lineBytes-byte lines. f must be finite and
// positive; each scaled access count must fit an int; and each scaled
// shared and per-core private footprint must fit its address region, which
// is what keeps the regions from aliasing. With no profiles only f itself
// is checked. The CLIs call it on -scale before any work.
func CheckScale(f float64, lineBytes int, ps ...Profile) error {
	if !(f > 0) || math.IsInf(f, 1) {
		return fmt.Errorf("scale %v is not finite and positive", f)
	}
	if lineBytes < 1 {
		return fmt.Errorf("line size %d is not positive", lineBytes)
	}
	for _, p := range ps {
		if float64(p.AccessesPerCore)*f >= math.MaxInt {
			return fmt.Errorf("scale %v overflows %s's access count per core", f, p.Name)
		}
		for _, r := range []struct {
			kind   string
			lines  int
			region uint64
		}{
			{"shared", p.SharedLines, privateBase - sharedBase},
			{"private", p.PrivateLines, privateStep},
		} {
			// Scaled's floor of eight lines included.
			n := max(math.Floor(float64(r.lines)*f), 8)
			if limit := r.region / uint64(lineBytes); n > float64(limit) {
				return fmt.Errorf("scale %v gives %s %.0f %s lines, more than the %d its region holds at %d-byte lines",
					f, p.Name, n, r.kind, limit, lineBytes)
			}
		}
	}
	return nil
}

// Address-space layout of generated traces. Regions are disjoint and far
// apart so shared and private lines never alias in any cache geometry;
// CheckScale keeps scaled footprints inside them.
const (
	sharedBase  uint64 = 0x1000_0000
	privateBase uint64 = 0x4000_0000
	privateStep uint64 = 1 << 26 // per-core private region stride
)

// SharedAddr returns the byte address of shared line idx.
func SharedAddr(idx int, lineBytes int) uint64 {
	return sharedBase + uint64(idx)*uint64(lineBytes)
}

// PrivateAddr returns the byte address of private line idx of core.
func PrivateAddr(core, idx, lineBytes int) uint64 {
	return privateBase + uint64(core)*privateStep + uint64(idx)*uint64(lineBytes)
}

// IsShared reports whether addr falls in the shared region.
func IsShared(addr uint64) bool { return addr >= sharedBase && addr < privateBase }

// Generate produces a deterministic multi-core trace for nCores cores with
// the given cache-line size. The same (profile, nCores, lineBytes, seed)
// always yields the same trace.
func (p Profile) Generate(nCores, lineBytes int, seed uint64) *Trace {
	if nCores <= 0 || lineBytes <= 0 {
		panic("trace: Generate with non-positive dimensions")
	}
	root := NewRNG(seed ^ hashName(p.Name))
	zipf := NewZipf(p.SharedLines, p.ZipfS)
	t := &Trace{Name: p.Name, Streams: make([]Stream, nCores)}
	phases := p.Phases
	if phases < 1 {
		phases = 1
	}
	for core := 0; core < nCores; core++ {
		rng := root.Fork()
		stream := make(Stream, 0, p.AccessesPerCore)
		recent := make([]uint64, 0, p.RepeatWindow)
		lastPhase := 0
		for i := 0; i < p.AccessesPerCore; i++ {
			phase := i * phases / p.AccessesPerCore
			if phase != lastPhase {
				// Working-set turnover: the recency window does not carry
				// across phase boundaries.
				recent = recent[:0]
				lastPhase = phase
			}
			var line uint64
			if len(recent) > 0 && rng.Float64() < p.PRepeat {
				line = recent[rng.Intn(len(recent))]
			} else if rng.Float64() < p.PShared {
				idx := (zipf.Sample(rng) + phase*p.SharedLines/phases) % p.SharedLines
				line = SharedAddr(idx, lineBytes)
			} else {
				span := p.PrivateLines / phases
				if span < 1 {
					span = 1
				}
				base := (phase * span) % p.PrivateLines
				line = PrivateAddr(core, (base+rng.Intn(span))%p.PrivateLines, lineBytes)
			}
			if p.RepeatWindow > 0 {
				if len(recent) < p.RepeatWindow {
					recent = append(recent, line)
				} else {
					recent[i%p.RepeatWindow] = line
				}
			}
			kind := Read
			if rng.Float64() < p.PWrite {
				kind = Write
			}
			stream = append(stream, Access{
				Addr: line + uint64(rng.Intn(lineBytes)),
				Kind: kind,
				Gap:  rng.Geometric(p.MeanGap),
			})
		}
		t.Streams[core] = stream
	}
	return t
}

// hashName mixes the profile name into the seed so different profiles with
// the same seed diverge.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Summary aggregates descriptive statistics of a trace; used by
// cmd/cohort-trace and tests.
type Summary struct {
	Name          string
	PerCore       []CoreSummary
	DistinctLines int
	SharedToAll   int // lines touched by every core
}

// CoreSummary describes one core's stream.
type CoreSummary struct {
	Accesses    int
	Writes      int
	SharedRefs  int
	TotalGap    int64
	UniqueLines int
}

// Summarize computes a Summary at the given line granularity.
func Summarize(t *Trace, lineBytes int) Summary {
	s := Summary{Name: t.Name, PerCore: make([]CoreSummary, len(t.Streams))}
	lineCores := map[uint64]map[int]bool{}
	for core, st := range t.Streams {
		cs := &s.PerCore[core]
		seen := map[uint64]bool{}
		for _, a := range st {
			line := a.Addr / uint64(lineBytes)
			cs.Accesses++
			if a.Kind == Write {
				cs.Writes++
			}
			if IsShared(a.Addr) {
				cs.SharedRefs++
			}
			cs.TotalGap += a.Gap
			seen[line] = true
			m, ok := lineCores[line]
			if !ok {
				m = map[int]bool{}
				lineCores[line] = m
			}
			m[core] = true
		}
		cs.UniqueLines = len(seen)
	}
	s.DistinctLines = len(lineCores)
	//cohort:allow maprange: counting lines shared by all cores; order-insensitive
	for _, cores := range lineCores {
		if len(cores) == len(t.Streams) && len(t.Streams) > 1 {
			s.SharedToAll++
		}
	}
	return s
}

// String renders a short human-readable summary.
func (s Summary) String() string {
	var out strings.Builder
	fmt.Fprintf(&out, "trace %s: %d cores, %d distinct lines, %d lines shared by all\n",
		s.Name, len(s.PerCore), s.DistinctLines, s.SharedToAll)
	for i, cs := range s.PerCore {
		fmt.Fprintf(&out, "  core %d: %6d accesses, %5.1f%% writes, %5.1f%% shared, %d unique lines, mean gap %.2f\n",
			i, cs.Accesses,
			pct(cs.Writes, cs.Accesses), pct(cs.SharedRefs, cs.Accesses),
			cs.UniqueLines, float64(cs.TotalGap)/float64(max(1, cs.Accesses)))
	}
	return out.String()
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// SortedLineSet returns the distinct line addresses of a stream in ascending
// order; exported for analysis and tests.
func SortedLineSet(s Stream, lineBytes int) []uint64 {
	seen := map[uint64]bool{}
	for _, a := range s {
		seen[a.Addr/uint64(lineBytes)] = true
	}
	lines := make([]uint64, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}
