#!/bin/sh
# scripts/bench.sh — run the hot-path micro-benchmarks (RunBatch,
# RunTracePipelined, ForwardBatch, ServeThroughput, ApplyDeltas,
# ServeMixedRW, and the hot-row cache's HotCacheBagHit / BagMissAdmit /
# Invalidate / BagParallel) with -benchmem and record the results as
# BENCH_hotpath.json at the repo root, so the perf trajectory of the
# batch execution path is tracked in-tree.
#
# The suite runs once per kernel tier (UPDLRM_BENCH_KERNEL=exact/fast
# is exported to the bench processes) and each JSON record carries its
# tier, so the regression gate (scripts/bench_compare.go) holds both
# the bit-identical tier and the AVX2/FMA tier to their own baselines.
#
#   ./scripts/bench.sh                      # both tiers, 1 run per benchmark
#   KERNEL=exact ./scripts/bench.sh         # one tier only
#   COUNT=5 ./scripts/bench.sh              # 5 runs per benchmark
#   OUT=/tmp/fresh.json ./scripts/bench.sh  # write elsewhere (CI gate:
#                                           # compare with scripts/bench_compare.go)
set -eu
cd "$(dirname "$0")/.."
out="${OUT:-BENCH_hotpath.json}"
kernels="${KERNEL:-exact fast}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
for k in $kernels; do
	echo "benchkernel: $k"
	UPDLRM_BENCH_KERNEL="$k" go test -run '^$' \
		-bench 'BenchmarkRunBatch$|BenchmarkRunTracePipelined$|BenchmarkForwardBatch$|BenchmarkServeThroughput$|BenchmarkApplyDeltas$|BenchmarkServeMixedRW$|BenchmarkHotCache' \
		-benchmem -count "${COUNT:-1}" \
		./internal/core ./internal/dlrm ./internal/serve ./internal/hotcache
done >"$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
	BEGIN {
		printf "{\n  \"generated\": \"%s\",\n", date
		n = 0
	}
	/^benchkernel: / { kernel = $2 }
	/^goos: / { goos = $2 }
	/^goarch: / { goarch = $2 }
	/^pkg: / { pkg = $2 }
	/^cpu: / { sub(/^cpu: /, ""); cpu = $0 }
	/^Benchmark/ {
		if (n == 0)
			printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n  \"benchmarks\": [\n", goos, goarch, cpu
		else
			printf ",\n"
		printf "    {\"name\": \"%s\", \"pkg\": \"%s\", \"kernel\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
			$1, pkg, kernel, $2, $3, $5, $7
		n++
	}
	END {
		if (n == 0) { print "  \"benchmarks\": []\n}"; exit 1 }
		printf "\n  ]\n}\n"
	}' <"$tmp" >"$out"

echo "wrote $out:"
cat "$out"
