#!/bin/sh
# check.sh runs the same gate as CI (.github/workflows/ci.yml) locally:
# gofmt, build, go vet, the determinism lint suite, the test suite, and the
# race-detector pass over the simulator packages.
set -eu
cd "$(dirname "$0")"

echo "==> gofmt -l (analyzer goldens under internal/lint/testdata excluded)"
unformatted="$(find . -name '*.go' -not -path './internal/lint/testdata/*' -not -path './.bench_build/*' -exec gofmt -l {} +)"
if [ -n "$unformatted" ]; then
  echo "$unformatted"
  echo "    FAIL: files above need gofmt"
  exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> cohort-vet -baseline lint.baseline ./..."
go run ./cmd/cohort-vet -baseline lint.baseline ./...

echo "==> seeded lockorder mutant (the analyzer must fail closed)"
go test -run TestConcurrencyMutants ./internal/lint

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "==> go test -race -shuffle=on ./internal/... ./cmd/cohort-sim"
go test -race -shuffle=on ./internal/... ./cmd/cohort-sim

echo "==> curve-vs-scalar fuzzing, time-boxed (two-sided regime exactness beyond the corpus)"
# A failing input lands in internal/analysis/testdata/fuzz; commit it.
go test -run '^$' -fuzz FuzzCurveVsScalar -fuzztime 15s ./internal/analysis

echo "==> coverage gate (internal/sim + internal/opt + internal/analysis combined, post-PR10 floor 96.5%)"
covdir="$(mktemp -d)"
go test -coverprofile "$covdir/cover.out" ./internal/sim ./internal/opt ./internal/analysis >/dev/null
go tool cover -func "$covdir/cover.out" | awk '
  /^total:/ {
    sub(/%/, "", $3)
    printf "    combined coverage: %s%%\n", $3
    if ($3 + 0 < 96.5) { print "    FAIL: below 96.5% floor"; exit 1 }
  }'
rm -rf "$covdir"

echo "==> observability smoke (manifest + report gate: -j 1 and -j 8)"
obsdir="$(mktemp -d)"
trap 'rm -rf "$obsdir"' EXIT
# Both runs land in the same directory under the same config key, so -check
# and the fingerprint diff below gate -j 1 ≡ -j 8 on the full CLI path, not
# just in unit tests.
go run ./cmd/cohort-bench -run fig5a -j 1 -scale 0.01 -cap 800 -benches fft,water -pop 8 -gens 6 -out-dir "$obsdir" >/dev/null 2>&1
go run ./cmd/cohort-bench -run fig5a -j 8 -scale 0.01 -cap 800 -benches fft,water -pop 8 -gens 6 -out-dir "$obsdir" >/dev/null 2>&1
go run ./cmd/cohort-report -dir "$obsdir" -check >/dev/null

echo "==> cohort-bench -run all pair (shared trace memo under concurrent runners: -j 1 and -j 8)"
# Default sizes, in a subdirectory of its own: the manifest loader does not
# recurse, so the perf-smoke fingerprint diff below never sees these runs.
alldir="$obsdir/run-all"
go run ./cmd/cohort-bench -run all -j 1 -out-dir "$alldir" >/dev/null 2>&1
go run ./cmd/cohort-bench -run all -j 8 -out-dir "$alldir" >/dev/null 2>&1
go run ./cmd/cohort-report -dir "$alldir" -check >/dev/null

echo "==> perf smoke (bit-identical fingerprints vs pre-overhaul goldens)"
go run ./cmd/cohort-report -dir "$obsdir" -fingerprints > "$obsdir/fingerprints.txt"
diff cmd/cohort-report/testdata/perf-smoke.fingerprints "$obsdir/fingerprints.txt"

echo "==> committed bench pairs (bench/run.sh -compare on every BENCH_prNN.parent.json,BENCH_prNN.json)"
# The root pairs are the one performance record: each file needs its
# partner, and every pair must compare without a regression.
for f in BENCH_*.json; do
  case "$f" in
    *.parent.json) base="$f"; new="${f%.parent.json}.json" ;;
    *) base="${f%.json}.parent.json"; new="$f" ;;
  esac
  if [ ! -f "$base" ] || [ ! -f "$new" ]; then
    echo "    FAIL: $f has no partner"
    exit 1
  fi
  if [ "$f" = "$new" ] && ! bash bench/run.sh -compare "$base,$new" > "$obsdir/compare.txt" 2>&1; then
    cat "$obsdir/compare.txt"
    echo "    FAIL: bench/run.sh -compare $base,$new"
    exit 1
  fi
done

echo "==> file-backed trace decode smoke (text and binary files print identical reports; a cut file fails)"
# A radix trace under -check: the *os.File decode of both formats, release
# rounds across three mode switches, and the invariant checker. -check
# sweeps the 32,768-entry LLC array per transaction, so the run that reaches
# LLC evictions (radix at scale 14) goes without it and is compared with
# the same trace generated in memory. That file, cut inside its last core's
# section, is decoded while the run is under way; the run must fail with
# the decoder's error and print nothing.
go build -o "$obsdir/" ./cmd/cohort-trace ./cmd/cohort-sim
sim="-nonperfect -levels 4 -timers 300,20,20,20"
"$obsdir/cohort-trace" -bench radix -scale 0.25 -out "$obsdir/radix.trace" 2>/dev/null
"$obsdir/cohort-trace" -bench radix -scale 0.25 -binary -out "$obsdir/radix.ctrb" 2>/dev/null
"$obsdir/cohort-sim" -trace "$obsdir/radix.trace" -check $sim -switch 100000:2,200000:3,300000:4 > "$obsdir/radix.text.out"
"$obsdir/cohort-sim" -trace "$obsdir/radix.ctrb" -check $sim -switch 100000:2,200000:3,300000:4 > "$obsdir/radix.binary.out"
diff "$obsdir/radix.text.out" "$obsdir/radix.binary.out"
"$obsdir/cohort-trace" -bench radix -scale 14 -binary -out "$obsdir/radix14.ctrb" 2>/dev/null
"$obsdir/cohort-sim" -trace "$obsdir/radix14.ctrb" $sim -switch 10000000:2,20000000:3,30000000:4 > "$obsdir/radix14.file.out"
"$obsdir/cohort-sim" -bench radix -scale 14 $sim -switch 10000000:2,20000000:3,30000000:4 > "$obsdir/radix14.generated.out"
diff "$obsdir/radix14.generated.out" "$obsdir/radix14.file.out"
size=$(wc -c < "$obsdir/radix14.ctrb")
head -c $((size - 20)) "$obsdir/radix14.ctrb" > "$obsdir/radix14.cut.ctrb"
status=0
"$obsdir/cohort-sim" -trace "$obsdir/radix14.cut.ctrb" $sim > "$obsdir/radix14.cut.out" 2> "$obsdir/radix14.cut.err" || status=$?
if [ "$status" != 1 ] || [ -s "$obsdir/radix14.cut.out" ] || ! grep -q 'cohort-sim: trace: core 3 access' "$obsdir/radix14.cut.err"; then
  cat "$obsdir/radix14.cut.err"
  echo "    FAIL: a cut binary trace exited $status; want 1, empty stdout and the decoder's core 3 error"
  exit 1
fi

echo "==> live debug-server smoke (/healthz, /metrics, /runs, pprof mid-run)"
go build -o "$obsdir/cohort-bench" ./cmd/cohort-bench
"$obsdir/cohort-bench" -run fig5a,attribution -j 2 -scale 1 -cap 0 -pop 24 -gens 24 \
  -listen 127.0.0.1:8723 >/dev/null &
benchpid=$!
up=0
i=0
while [ "$i" -lt 100 ]; do
  if curl -fsS http://127.0.0.1:8723/healthz 2>/dev/null | grep -q ok; then up=1; break; fi
  i=$((i + 1)); sleep 0.1
done
if [ "$up" != 1 ]; then
  echo "    FAIL: debug server never answered /healthz"
  kill "$benchpid" 2>/dev/null || true
  exit 1
fi
curl -fsS http://127.0.0.1:8723/metrics > "$obsdir/metrics.prom"
grep -q '^cohort_run_events_total' "$obsdir/metrics.prom"
curl -fsS http://127.0.0.1:8723/runs > "$obsdir/runs.json"
grep -q '"tool": "cohort-bench"' "$obsdir/runs.json"
curl -fsS "http://127.0.0.1:8723/debug/pprof/goroutine?debug=1" > "$obsdir/goroutine.pprof"
test -s "$obsdir/goroutine.pprof"
wait "$benchpid"

echo "==> cohort-model -smoke (exhaustive closure at depth 4)"
go run ./cmd/cohort-model -smoke -depth 4 -q -out "$obsdir/counterexample.txt"

echo "==> cohort-model three-core preset (exhaustive closure at depth 3: 179 states, 101,466 runs)"
go run ./cmd/cohort-model -config internal/model/testdata/smoke3.json -depth 3 -q -out "$obsdir/counterexample3.txt" > "$obsdir/model3.txt"
if ! grep -qx 'cohort-model: 179 states, 101466 runs, depth 3' "$obsdir/model3.txt"; then
  cat "$obsdir/model3.txt"
  echo "    FAIL: the three-core closure moved"
  exit 1
fi

echo "==> all checks passed"
