#!/usr/bin/env bash
# Bench snapshot: runs the top-level benchmark harness and writes a
# machine-readable BENCH_<label>.json next to PERF.md, so perf numbers
# can be tracked across commits and diffed by tooling instead of being
# copied into prose by hand.
#
# Usage (from the repo root):
#
#   bash scripts/bench-snapshot.sh                 # baseline rows, label = short commit (+"-dirty")
#   bash scripts/bench-snapshot.sh -bench 'E13'    # one family
#   bash scripts/bench-snapshot.sh -bench .        # the whole harness
#   BENCH_LABEL=baseline bash scripts/bench-snapshot.sh
#
# The default pattern is the row set of the committed baselines
# (BENCH_pr*.json, the perf gate's reference): the E13 Peterson, E16
# wide-scaling, DS-suite and E17 model families. -bench overrides it,
# and the snapshot records the pattern it ran in its "pattern" field,
# so a baseline's row set is stated, not inferred from its names.
#
# Extra arguments are passed through to `go test` (e.g. -benchtime 3x).
# BENCH_TIME overrides the iteration count (default 10x: single-digit
# iteration counts made per-op metrics of the fast DS benchmarks too
# noisy to diff across commits — see the iterations field of each row).
# The output JSON carries one record per benchmark with every metric Go
# reported (ns/op, B/op, allocs/op, states/op, ...) plus run metadata.
# The E13_MetricsPeterson family additionally reports search-shape
# ratios from the telemetry registry (por-pruned/op, dedup-hits/op) —
# those land in the snapshot like any other metric, so a diff between
# two BENCH_*.json files shows whether a timing shift came with a
# change in what the search explored.
# The script fails loudly — pipefail, an empty-output check, and a JSON
# validation of the snapshot — instead of committing a truncated or
# malformed file when the bench run breaks.
set -euo pipefail

pattern='E13_PetersonVerify|E13_ThreeThreadPeterson|E16_ScalingWide|DSSuite|E17_Model'
args=''
while [ $# -gt 0 ]; do
    case "$1" in
    -bench)
        pattern="$2"
        shift 2
        ;;
    *)
        args="$args $1"
        shift
        ;;
    esac
done

# A tracked tree that differs from HEAD is marked <sha>-dirty, so a
# snapshot taken before its change is committed does not pass for one
# of HEAD itself.
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD; then
    commit="$commit-dirty"
fi
label="${BENCH_LABEL:-$commit}"
out="BENCH_${label}.json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# shellcheck disable=SC2086  # $args is intentionally word-split
go test -run='^$' -bench="$pattern" -benchtime="${BENCH_TIME:-10x}" $args . | tee "$raw"

# A bench run that produced no benchmark lines (bad -bench pattern,
# build drift, go test quirk) must not write an empty snapshot.
nbench=$(grep -c '^Benchmark' "$raw" || true)
if [ "$nbench" -eq 0 ]; then
    echo "bench-snapshot: no benchmark output for pattern '$pattern' — refusing to write $out" >&2
    exit 1
fi

# The pattern goes through the environment: awk -v would process the
# backslash escapes a regular expression may contain.
BENCH_PATTERN="$pattern" awk -v commit="$commit" -v label="$label" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v goversion="$(go env GOVERSION)" -v goos="$(go env GOOS)" -v goarch="$(go env GOARCH)" '
function jsonstr(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); return s }
/^cpu: /  { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    # "BenchmarkName-8  N  v1 unit1  v2 unit2 ..." — every value/unit
    # pair after the iteration count is a metric.
    name = $1; sub(/-[0-9]+$/, "", name)
    rec = sprintf("    {\"name\": \"%s\", \"iterations\": %s", jsonstr(name), $2)
    for (i = 3; i + 1 <= NF; i += 2)
        rec = rec sprintf(", \"%s\": %s", jsonstr($(i + 1)), $i)
    rec = rec "}"
    recs[++n] = rec
}
END {
    printf "{\n"
    printf "  \"label\": \"%s\",\n", jsonstr(label)
    printf "  \"commit\": \"%s\",\n", jsonstr(commit)
    printf "  \"pattern\": \"%s\",\n", jsonstr(ENVIRON["BENCH_PATTERN"])
    printf "  \"date\": \"%s\",\n", jsonstr(date)
    printf "  \"go\": \"%s\",\n", jsonstr(goversion)
    printf "  \"os\": \"%s\",\n", jsonstr(goos)
    printf "  \"arch\": \"%s\",\n", jsonstr(goarch)
    printf "  \"cpu\": \"%s\",\n", jsonstr(cpu)
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++)
        printf "%s%s\n", recs[i], (i < n ? "," : "")
    printf "  ]\n}\n"
}' "$raw" >"$out"

# Never publish a malformed snapshot: the file must parse as one JSON
# value before we report success.
if ! go run ./scripts/jsonlint <"$out"; then
    echo "bench-snapshot: generated $out is not valid JSON — removing it" >&2
    rm -f "$out"
    exit 1
fi

echo "wrote $out ($nbench benchmarks)"
