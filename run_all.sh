#!/bin/sh
# Reproduce everything: full test suite and the perfbench helper tests,
# then every paper table/figure.
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
WITH_CHAOS=0
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
        --with-telemetry)
            WITH_TELEMETRY=1
            REPRO_TRACE=1
            export REPRO_TRACE
            ;;
        *)
            echo "usage: $0 [--with-traces] [--with-chaos] [--with-reconfig] [--with-telemetry]" >&2
            exit 2
            ;;
    esac
done
set -x
pytest tests/ 2>&1 | tee test_output.txt
python3 -m pytest perfbench -q 2>&1 | tee perfbench_test_output.txt
if [ "$WITH_TELEMETRY" = "1" ]; then
    pytest tests/ -m telemetry 2>&1 | tee telemetry_output.txt
fi
if [ "$WITH_CHAOS" = "1" ]; then
    pytest tests/ -m chaos 2>&1 | tee chaos_output.txt
fi
if [ "$WITH_RECONFIG" = "1" ]; then
    pytest tests/ -m reconfig 2>&1 | tee reconfig_output.txt
    pytest benchmarks/test_reconfig_scaleout.py --benchmark-only -s 2>&1 \
        | tee reconfig_bench_output.txt
fi
pytest benchmarks/ --benchmark-only -s 2>&1 | tee bench_output.txt
