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

echo "==> cohort-vet concurrency analyzers (report artifact)"
go run ./cmd/cohort-vet -only lockorder,atomicmix,goleak,ctxflow,syncmisuse \
  -baseline lint.baseline -json /tmp/concurrency-report.json ./...

echo "==> seeded concurrency mutants (each analyzer must fail closed)"
go test -run TestConcurrencyMutants ./internal/lint

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "==> go test -race -shuffle=on ./internal/..."
go test -race -shuffle=on ./internal/...

echo "==> go test -race (parallel evaluation engine)"
go test -race -shuffle=on ./internal/parallel ./internal/opt ./internal/experiments

echo "==> cohort-bench fig5a -j 8 smoke"
go run ./cmd/cohort-bench -run fig5a -j 8 -scale 0.01 -cap 800 -benches fft,water -pop 8 -gens 6 >/dev/null

echo "==> curve/batch-vs-scalar fuzz seeds (committed corpus)"
go test -run 'FuzzCurveVsScalar|FuzzBatchVsScalar' ./internal/analysis

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

echo "==> all checks passed"
