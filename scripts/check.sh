#!/usr/bin/env sh
# Full local check: build, vet, domain lints, race-enabled tests.
# Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> benchmark module: go vet ./... (in benchmark/)"
# benchmark/ is its own module, so the root build and vet never compile
# it; vetting it here catches an API change in loosesim that breaks it.
(cd benchmark && go vet ./...)

echo "==> simlint ./..."
go run ./cmd/simlint ./...

echo "==> simlint hot-path gate (hotalloc,exhaustive,fieldreset,sinkguard)"
# Redundant with the full run above, but an explicit gate: the cross-package
# analyzers must stay enabled and clean even if someone trims the default set.
go run ./cmd/simlint -enable hotalloc,exhaustive,fieldreset,sinkguard ./...

echo "==> simlint concurrency & determinism gate (ctxflow,goleak,lockorder,nondet-taint,chanclose)"
# Same idea for the interprocedural dataflow analyzers: the serving and
# dispatch stack must stay clean under them with no baseline file.
go run ./cmd/simlint -enable ctxflow,goleak,lockorder,nondet-taint,chanclose ./...

echo "==> simlint perf ratchet (hot-path escapes/inlining/bounds/dispatch vs PERF_baseline.json)"
if ! go run ./cmd/simlint -perfbaseline PERF_baseline.json ./...; then
	echo "check.sh: hot-path perf budget exceeded; the grown counts are listed above." >&2
	echo "check.sh: inspect the offending sites with:  go run ./cmd/simlint -perf ./..." >&2
	echo "check.sh: if the growth is intentional, ratchet deliberately with:" >&2
	echo "check.sh:   go run ./cmd/simlint -perfbaseline PERF_baseline.json -perfupdate ./..." >&2
	exit 1
fi

echo "==> go test -race ./..."
go test -race ./...

echo "==> bench regression gate (BenchmarkMachine vs BENCH_machine.json)"
./scripts/bench.sh check

echo "==> snapshot fuzz smoke (FuzzSnapshotRoundTrip, 10s past the seed corpus)"
# The committed corpus replays as part of `go test` above; this additionally
# mutates for a short budget so codec regressions that need a fresh input to
# trip are caught before CI's longer run.
go test ./internal/pipeline -run '^FuzzSnapshotRoundTrip$' -fuzz '^FuzzSnapshotRoundTrip$' -fuzztime 10s >/dev/null

echo "==> observability smoke (loosim -intervals/-events | loopstat)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/loosim -bench apsi -dra -warmup 20000 -inst 60000 \
	-intervals "$tmp/iv.csv" -events "$tmp/ev.jsonl" >/dev/null
go run ./cmd/loopstat -events "$tmp/ev.jsonl" -intervals "$tmp/iv.csv" >/dev/null

echo "==> sampler byte-identity across worker counts (loosim -sample at GOMAXPROCS 1 and 4)"
# sample.Run streams checkpoints into a GOMAXPROCS-wide window pool; the
# estimate must not depend on how many workers ran the windows.
GOMAXPROCS=1 go run ./cmd/loosim -bench swim -dra -regread 5 -warmup 20000 -inst 60000 -sample 8 -json >"$tmp/sample1.json"
GOMAXPROCS=4 go run ./cmd/loosim -bench swim -dra -regread 5 -warmup 20000 -inst 60000 -sample 8 -json >"$tmp/sample4.json"
cmp "$tmp/sample1.json" "$tmp/sample4.json"

echo "==> serving smoke (loosimd -selfcheck: submit over HTTP, cache hit, metrics)"
go run ./cmd/loosimd -selfcheck -cache "$tmp/cache" >/dev/null

echo "==> load smoke (looload -selfcheck: model determinism + loopback admission fleet)"
go run ./cmd/looload -selfcheck >/dev/null

echo "==> load replay byte-identity (two seeded replays must cmp equal)"
# -selfcheck already byte-compares in-process; this repeats it across two
# separate processes so process-level nondeterminism (map iteration, ASLR'd
# pointers leaking into output) would be caught too.
go run ./cmd/looload -seed 42 -curve 0.5,1,2 >"$tmp/load1.txt"
go run ./cmd/looload -seed 42 -curve 0.5,1,2 >"$tmp/load2.txt"
cmp "$tmp/load1.txt" "$tmp/load2.txt"

echo "==> sweep smoke (loosweep -selfcheck: coordinator + 2 loopback backends)"
go run ./cmd/loosweep -selfcheck -trace "$tmp/spans.jsonl" >/dev/null

echo "==> tracing smoke (loostrace over the selfcheck span stream)"
# The traced selfcheck already proved byte-identity; here the renderer must
# reconstruct the same stream into waterfalls and a fleet summary.
go run ./cmd/loostrace "$tmp/spans.jsonl" >/dev/null
go run ./cmd/loostrace -json "$tmp/spans.jsonl" >/dev/null

echo "All checks passed."
