#!/bin/sh
# Reproduce everything: full test suite and the perfbench helper tests,
# then every paper table/figure.  Exits non-zero when any step fails.
#
#   --with-traces   attach a repro.obs tracer to every cluster
#                   (REPRO_TRACE=1): tests replay protocol invariants and
#                   the benchmark session dumps per-tracer metrics tables.
#   --with-chaos    additionally run the seeded chaos suite (pytest -m
#                   chaos): whole-cluster fault schedules with trace
#                   invariants and determinism digests (see docs/FAULTS.md).
#   --with-reconfig additionally run the online-reconfiguration suite in
#                   isolation (pytest -m reconfig, already part of the
#                   default run) plus the scale-out benchmark, which
#                   writes BENCH_reconfig.json (see docs/RECONFIG.md).
#   --with-telemetry implies --with-traces and additionally runs the
#                   telemetry suite (pytest -m telemetry: traced workload
#                   runs with time-series sampling and exporter checks).
#   --with-perfbench additionally runs the repository benchmark once per
#                   workload (untar, bulk, sfs; seed 1, 5 s, untraced):
#                   a failed correctness check or determinism guard fails
#                   the script (see perfbench/README.md).
WITH_CHAOS=0
WITH_PERFBENCH=0
WITH_RECONFIG=0
WITH_TELEMETRY=0
for arg in "$@"; do
    case "$arg" in
        --with-traces)
            REPRO_TRACE=1
            export REPRO_TRACE
            ;;
        --with-chaos)
            WITH_CHAOS=1
            ;;
        --with-reconfig)
            WITH_RECONFIG=1
            ;;
        --with-perfbench)
            WITH_PERFBENCH=1
            ;;
        --with-telemetry)
            WITH_TELEMETRY=1
            REPRO_TRACE=1
            export REPRO_TRACE
            ;;
        *)
            echo "usage: $0 [--with-traces] [--with-chaos] [--with-reconfig] [--with-telemetry] [--with-perfbench]" >&2
            exit 2
            ;;
    esac
done
# Run one step, tee its output to a file, and remember a failure: dash
# has no pipefail, so the exit status of a "cmd | tee" pipe is tee's.
STATUS=0
step() {
    out=$1
    shift
    { "$@" 2>&1; echo $? > "$out.rc"; } | tee "$out"
    [ "$(cat "$out.rc")" = 0 ] || STATUS=1
    rm -f "$out.rc"
}
set -x
step test_output.txt pytest tests/
step perfbench_test_output.txt python3 -m pytest perfbench -q
if [ "$WITH_TELEMETRY" = "1" ]; then
    step telemetry_output.txt pytest tests/ -m telemetry
fi
if [ "$WITH_CHAOS" = "1" ]; then
    step chaos_output.txt pytest tests/ -m chaos
fi
if [ "$WITH_RECONFIG" = "1" ]; then
    step reconfig_output.txt pytest tests/ -m reconfig
    step reconfig_bench_output.txt \
        pytest benchmarks/test_reconfig_scaleout.py --benchmark-only -s
fi
if [ "$WITH_PERFBENCH" = "1" ]; then
    for workload in untar bulk sfs; do
        step "perfbench_${workload}_output.txt" python3 perfbench/run.py \
            --workload "$workload" --seed 1 --seconds 5 --trace 0
    done
fi
step bench_output.txt pytest benchmarks/ --benchmark-only -s
exit $STATUS
