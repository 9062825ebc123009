#!/bin/sh
# Lint: every metric name registered in non-test Go source must match
# hotc_[a-z_]+ — the same rule obs.Registry enforces at runtime, caught
# here before anything runs.
set -eu
cd "$(dirname "$0")/.."

# Pull the first string-literal argument of every registry constructor
# call (Counter/Gauge/Histogram and their Vec forms) outside _test.go
# files and the obs package itself (whose sources mention the rule).
bad=$(grep -rn --include='*.go' --exclude='*_test.go' \
        -E '\.(Counter|Gauge|Histogram|CounterVec|GaugeVec|HistogramVec)\("' \
        cmd internal *.go 2>/dev/null |
      grep -v '^internal/obs/' |
      sed -E 's/.*\.(Counter|Gauge|Histogram|CounterVec|GaugeVec|HistogramVec)\("([^"]*)".*/\1 \2/' |
      awk '$2 !~ /^hotc_[a-z_]+$/ {print}' || true)

if [ -n "$bad" ]; then
    echo "lint-metrics: metric names must match hotc_[a-z_]+:" >&2
    echo "$bad" >&2
    exit 1
fi

# The tracing/SLO observability surface is part of the public contract:
# fail if a refactor silently drops one of its metric families.
for fam in hotc_trace_kept_total hotc_trace_sampled_out_total \
           hotc_trace_ring_dropped_total hotc_slo_burn_rate \
           hotc_slo_bad_fraction hotc_slo_breach hotc_slo_budget \
           hotc_build_info hotc_uptime_seconds \
           hotc_coldpath_boots_total hotc_coldpath_phase_ms \
           hotc_coldpath_generic_idle hotc_coldpath_refills_total \
           hotc_coldpath_generic_reaped_total \
           hotc_coldpath_pull_skipped_mb_total \
           hotc_share_leases_total hotc_share_lenders \
           hotc_share_renters hotc_share_boot_phase_ms \
           hotc_pool_park_total hotc_pool_park_wait_ms; do
    if ! grep -rq --include='*.go' --exclude='*_test.go' "\"$fam\"" cmd internal; then
        echo "lint-metrics: required metric family $fam is not registered anywhere" >&2
        exit 1
    fi
done
echo "lint-metrics: OK"
