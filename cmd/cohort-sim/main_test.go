package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohort"
	"cohort/internal/cliutil"
	"cohort/internal/obs"
)

// writeTraces writes one small generated trace to dir in the text and the
// binary format and returns the two paths.
func writeTraces(t *testing.T, dir string) (text, bin string) {
	t.Helper()
	p, err := cohort.ProfileByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Scaled(0.02).Generate(4, 64, 42)
	var tb, bb bytes.Buffer
	if err := tr.Write(&tb); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(&bb); err != nil {
		t.Fatal(err)
	}
	text, bin = filepath.Join(dir, "radix.trace"), filepath.Join(dir, "radix.ctrb")
	if err := os.WriteFile(text, tb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bin, bb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return text, bin
}

// TestRunRejectsBadInput drives the CLI with flags and inputs no simulation
// can use. A bad flag value exits 2 and names the flag; an input that
// cannot be read exits 1. None may panic.
func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	_, bin := writeTraces(t, dir)
	enc, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.ctrb")
	if err := os.WriteFile(truncated, enc[:len(enc)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	// Cut inside the last core's section: the run is under way when the
	// decode meets the cut.
	cutLast := filepath.Join(dir, "cut-last.ctrb")
	if err := os.WriteFile(cutLast, enc[:len(enc)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	// One stream more than the sharer bitmask has bits: rejected when the
	// platform is built, before the run.
	fft, err := cohort.ProfileByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	var wide bytes.Buffer
	if err := fft.Scaled(0.01).Generate(cohort.MaxCores+1, 64, 42).WriteBinary(&wide); err != nil {
		t.Fatal(err)
	}
	tooWide := filepath.Join(dir, "65-cores.ctrb")
	if err := os.WriteFile(tooWide, wide.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// A text trace naming a core far past any platform: the parser refuses
	// it at that line instead of allocating a stream header per index.
	hugeCore := filepath.Join(dir, "huge-core.trace")
	if err := os.WriteFile(hugeCore, []byte("# name huge\n3000000000 2000 W 1\n0 40 R 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		args     []string
		wantExit int
		wantErr  string
	}{
		{"zero cores", []string{"-cores", "0"}, 2, "-cores"},
		{"too many cores", []string{"-cores", "65"}, 2, "-cores must be in [1, 64], got 65"},
		{"negative levels", []string{"-levels", "-3"}, 2, "-levels"},
		{"crit without pendulum", []string{"-crit", "1,1,0,0"}, 2, "-crit"},
		{"crit with pcc", []string{"-system", "pcc", "-crit", "1,0,0,0"}, 2, "-crit"},
		{"zero scale", []string{"-scale", "0"}, 2, "-scale"},
		{"NaN scale", []string{"-scale", "NaN"}, 2, "-scale: scale NaN is not finite and positive"},
		{"infinite scale", []string{"-scale", "+Inf"}, 2, "-scale: scale +Inf is not finite and positive"},
		{"overflowing scale", []string{"-scale", "1e30"}, 2, "-scale: scale 1e+30 overflows fft's access count"},
		{"footprint past its region", []string{"-bench", "ocean", "-scale", "2000"}, 2, "-scale: scale 2000 gives ocean 1280000 private lines"},
		{"levels above the maximum", []string{"-levels", "16"}, 2, "-levels must be in [1, 15], got 16"},
		{"huge levels", []string{"-levels", "1000000000"}, 2, "-levels must be in [1, 15]"},
		{"unknown system", []string{"-system", "mesif"}, 2, "-system"},
		{"timer count", []string{"-timers", "300,20"}, 2, "-timers"},
		{"timer above range", []string{"-timers", "300,20,20,70000"}, 2, "-timers: timer 70000 outside [-1, 65535]"},
		{"timer below range", []string{"-timers", "300,20,20,-5"}, 2, "-timers: timer -5 outside [-1, 65535]"},
		{"bad switch", []string{"-levels", "2", "-switch", "100"}, 2, "-switch"},
		{"switch mode out of range", []string{"-levels", "2", "-switch", "100:3"}, 2, "-switch"},
		{"undefined flag", []string{"-nosuchflag"}, 2, "-nosuchflag"},
		{"removed listen flag", []string{"-listen", ":0"}, 2, "-listen"},
		{"missing file", []string{"-trace", filepath.Join(dir, "missing.ctrb")}, 1, "missing.ctrb"},
		{"truncated binary trace", []string{"-trace", truncated}, 1, "unexpected EOF"},
		{"binary trace cut in the last core", []string{"-trace", cutLast}, 1, "core 3 access"},
		{"trace with too many cores", []string{"-trace", tooWide}, 1, "65 cores, at most 64"},
		{"text trace with a huge core index", []string{"-trace", hugeCore}, 1, "trace: line 2: implausible core 3000000000, at most 65536 cores"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tt.args, &stdout, &stderr); got != tt.wantExit {
				t.Fatalf("exit %d, want %d; stderr:\n%s", got, tt.wantExit, stderr.String())
			}
			if !strings.Contains(stderr.String(), tt.wantErr) {
				t.Errorf("stderr does not name %q:\n%s", tt.wantErr, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected run wrote stdout:\n%s", stdout.String())
			}
		})
	}
}

// TestTraceFormatsPrintSameReport runs one platform on a trace in its text
// and its binary form: the two reports must be byte-identical, since both
// decode to the same trace.
func TestTraceFormatsPrintSameReport(t *testing.T) {
	text, bin := writeTraces(t, t.TempDir())
	report := func(path string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-trace", path, "-nonperfect", "-levels", "2", "-timers", "300,20,20,20", "-switch", "20000:2", "-check"}
		if got := run(args, &stdout, &stderr); got != 0 {
			t.Fatalf("%s: exit %d; stderr:\n%s", path, got, stderr.String())
		}
		return stdout.String()
	}
	textOut, binOut := report(text), report(bin)
	if textOut != binOut {
		t.Fatalf("text and binary traces printed different reports:\n--- text\n%s--- binary\n%s", textOut, binOut)
	}
	if !strings.HasPrefix(binOut, "workload radix on cohort (4 cores") {
		t.Fatalf("unexpected report:\n%s", binOut)
	}
}

// TestArtifactsLeaveStdoutAlone runs one platform plain and with every
// artifact flag: -vcd, -chrome, -out-dir and -attr. The report on stdout
// must not change, stderr must hold exactly one "wrote …" line per
// artifact, and each file must load. A third run, -out-dir without -attr,
// pins that the attribution metrics enter the manifest only on request.
func TestArtifactsLeaveStdoutAlone(t *testing.T) {
	base := []string{"-bench", "fft", "-scale", "0.01", "-timers", "300,20,20,20"}
	sim := func(extra ...string) (stdout, stderr string) {
		t.Helper()
		var out, errOut bytes.Buffer
		if got := run(append(append([]string{}, base...), extra...), &out, &errOut); got != 0 {
			t.Fatalf("%v: exit %d; stderr:\n%s", extra, got, errOut.String())
		}
		return out.String(), errOut.String()
	}
	manifest := func(dir string) (*obs.Manifest, string) {
		t.Helper()
		ms, err := obs.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "*.manifest.json"))
		if err != nil || len(ms) != 1 || len(paths) != 1 {
			t.Fatalf("%s: want one manifest, got %d (%v, err %v)", dir, len(ms), paths, err)
		}
		return ms[0], paths[0]
	}
	attrMetrics := func(m *obs.Manifest) int {
		n := 0
		for _, mt := range m.Metrics {
			if strings.HasPrefix(mt.Name, "sim_core_attr_") {
				n++
			}
		}
		return n
	}

	plainOut, plainErr := sim()
	if plainErr != "" {
		t.Errorf("plain run wrote stderr:\n%s", plainErr)
	}

	dir := t.TempDir()
	vcdPath, chromePath, outDir := filepath.Join(dir, "run.vcd"), filepath.Join(dir, "run.json"), filepath.Join(dir, "out")
	fullOut, fullErr := sim("-vcd", vcdPath, "-chrome", chromePath, "-out-dir", outDir, "-attr")
	if fullOut != plainOut {
		t.Errorf("artifact flags changed stdout:\n--- plain\n%s--- with artifacts\n%s", plainOut, fullOut)
	}
	m, manPath := manifest(outDir)
	want := "wrote waveform to " + vcdPath + "\n" +
		"wrote chrome trace to " + chromePath + " (load at ui.perfetto.dev)\n" +
		"wrote manifest to " + manPath + "\n"
	if fullErr != want {
		t.Errorf("stderr:\n%s\nwant:\n%s", fullErr, want)
	}
	vcd, err := os.ReadFile(vcdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(vcd, []byte("$timescale 1ns $end\n")) {
		t.Errorf("VCD does not begin with its timescale:\n%.200s", vcd)
	}
	raw, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	broadcast := false
	for _, ev := range chrome.TraceEvents {
		broadcast = broadcast || ev.Name == "broadcast" && ev.Ph == "X"
	}
	if !broadcast {
		t.Errorf("chrome trace holds no broadcast span among %d events", len(chrome.TraceEvents))
	}
	if m.Tool != "cohort-sim" || attrMetrics(m) == 0 {
		t.Errorf("manifest of tool %q carries %d sim_core_attr_* metrics; want cohort-sim and some", m.Tool, attrMetrics(m))
	}

	bareDir := filepath.Join(dir, "bare")
	bareOut, bareErr := sim("-out-dir", bareDir)
	bare, barePath := manifest(bareDir)
	if bareOut != plainOut {
		t.Errorf("-out-dir changed stdout:\n%s", bareOut)
	}
	if want := "wrote manifest to " + barePath + "\n"; bareErr != want {
		t.Errorf("stderr:\n%s\nwant:\n%s", bareErr, want)
	}
	if n := attrMetrics(bare); n != 0 {
		t.Errorf("manifest without -attr carries %d sim_core_attr_* metrics", n)
	}
}

// FuzzListFlags feeds one string to every list-flag parser: -timers,
// -crit and -switch. None may panic, each rejection must be a usage error
// (exit 2), and each accepted list must have one valid entry per core.
func FuzzListFlags(f *testing.F) {
	for _, s := range []string{"", "300,20,20,-1", "1,0,1,0", "5000:2,9000:3", "70000", "-5", " 1, 0 ,1,0", "1:2:3", ":", ","} {
		f.Add(s)
	}
	const n = 4
	f.Fuzz(func(t *testing.T, s string) {
		rejected := func(flag string, err error) bool {
			if err == nil {
				return false
			}
			if got := cliutil.Status("cohort-sim", err, io.Discard); got != 2 {
				t.Fatalf("%s %q: exit %d for %v, want 2", flag, s, got, err)
			}
			return true
		}
		if ths, err := parseTimers(s, n); !rejected("-timers", err) {
			if len(ths) != n {
				t.Fatalf("-timers %q: %d timers for %d cores", s, len(ths), n)
			}
			for _, th := range ths {
				if !th.Valid() {
					t.Fatalf("-timers %q: accepted invalid timer %d", s, th)
				}
			}
		}
		if mask, err := parseMask(s, n); !rejected("-crit", err) && len(mask) != n {
			t.Fatalf("-crit %q: %d flags for %d cores", s, len(mask), n)
		}
		if sws, err := parseSwitches(s); !rejected("-switch", err) && s != "" && len(sws) != strings.Count(s, ",")+1 {
			t.Fatalf("-switch %q: %d switches", s, len(sws))
		}
	})
}
