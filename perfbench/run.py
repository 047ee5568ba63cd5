"""Benchmark of the Slice simulator: speed of the program and the simulated
NFS service, on the ``untar``, ``bulk`` and ``sfs`` workloads.

    python3 perfbench/run.py --workload untar --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  A run covers ``SUBRUNS`` sub-seeds derived from ``--seed``.
With ``--trace 0`` it sets up and measures them in turn, cycling until
``--seconds`` have passed and every sub-seed ran at least once (sub-seed 0
twice): wall-clock figures are medians over all repetitions, simulated
figures are pooled over the sub-seeds, and every repeated sub-seed must
reproduce its simulated samples exactly.  With ``--trace 1`` sub-seed 0
runs untraced, then with layer timers installed, then under the program's
own tracer and invariant checker, and the per-layer metrics are reported.
The last line of standard output is one JSON object; the exit code is
non-zero when a correctness check or the determinism guard fails.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import time
from pathlib import Path

import machine  # the script's own directory is on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics in the order of the JSON result (--trace 0).
E2E = ["nfs_ops_per_wall_s", "setup_s", "peak_rss_mb", "sim_ops_per_s",
       "lat_mean_ms", "lat_p99_ms"]
#: Simulated metrics that are zero or a constant on some workload: they
#: are reported with the per-layer metrics (--trace 1) instead.
TRACED_SIMULATED = ("lat_p50_ms", "gen_lag_p99_ms", "sim_write_MBps",
                    "sim_read_MBps")

SUBRUNS = 6
#: Cheap set-ups are repeated (on fresh ensembles) up to this much wall
#: time per repetition, so that ``setup_s`` is a median of many samples.
SETUP_BUDGET_S = 0.2
MAX_SETUPS = 10
#: Wall seconds of machine-speed calibration before and after each rep.
CALIBRATION_S = 0.1


class GuardError(Exception):
    """Two runs of one seed disagreed on a simulated result."""


def _load_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no program source at {ROOT / 'src' / 'repro'}; run "
            "from the root of a source checkout")
    sys.path.insert(0, str(ROOT / "src"))


class Rep:
    """One repetition: set up, measure, verify."""

    def __init__(self, cls, seed: int, tracer=None, before_measure=None,
                 after_measure=None, setup_budget_s: float = 0.0,
                 keep: bool = False):
        self.seed = seed
        self.setup_samples = []
        before = machine.speed(CALIBRATION_S)
        while True:
            gc.collect()
            w = cls(seed)
            t0 = time.perf_counter()
            w.setup(tracer)
            self.setup_samples.append(time.perf_counter() - t0)
            if (sum(self.setup_samples) >= setup_budget_s
                    or len(self.setup_samples) >= MAX_SETUPS):
                break
        if before_measure is not None:
            before_measure(w)
        t0 = time.perf_counter()
        w.measure()
        self.measure_s = time.perf_counter() - t0
        self.machine_speed = (before + machine.speed(CALIBRATION_S)) / 2
        if after_measure is not None:
            after_measure(w)
        w.verify()
        sim = w.cluster.sim
        self.raw = w.raw()
        # Every scheduled event is stepped exactly once, so this counts steps.
        self.steps = sim._eid - len(sim._heap)
        self.ops_per_wall_s = w.measured_ops / self.measure_s
        self.attempted = w.log.attempted
        self.failed = w.log.failed
        self.working_set = w.working_set()
        self.workload = w if keep else None

    def check_same(self, other: "Rep", what: str) -> None:
        mine = dict(self.raw, steps=self.steps)
        theirs = dict(other.raw, steps=other.steps)
        if mine != theirs:
            diff = sorted(k for k in mine if mine[k] != theirs[k])
            raise GuardError(
                f"determinism guard: seed {self.seed}: {what} differs in "
                f"{diff}")


def simulated_metrics(cls, raws):
    from metrics import Metric
    from workloads import pool

    sim = pool(raws)
    n, q = sim["lat_samples"], sim["lat_tail_q"]
    timed_from = "send" if cls.closed_loop else "due time"
    return [
        Metric("sim_ops_per_s", sim["sim_ops_per_s"], "ops/s", "simulated"),
        Metric("lat_mean_ms", sim["lat_mean_ms"], "ms",
               f"simulated, from {timed_from}, {n} samples"),
        Metric("lat_p50_ms", sim["lat_p50_ms"], "ms", f"{n} samples"),
        Metric("lat_p99_ms", sim["lat_p99_ms"], "ms",
               f"p{q * 100:g} of {n} samples, >= 10 beyond"),
        Metric("gen_lag_p99_ms", sim["gen_lag_p99_ms"], "ms",
               "simulated" if not cls.closed_loop else "closed loop: none"),
        Metric("sim_write_MBps", sim["sim_write_MBps"], "MB/s", "simulated"),
        Metric("sim_read_MBps", sim["sim_read_MBps"], "MB/s", "simulated"),
    ]


def failure_metric(reps):
    from metrics import Metric, failure_ratio

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    return Metric("failed_op_ratio", failure_ratio(failed, attempted),
                  "fraction", f"{failed} of {attempted} ops")


def run_untraced(cls, seed: int, seconds: float):
    from metrics import Metric, median

    reps, first = [], {}
    start = time.perf_counter()
    while len(reps) <= SUBRUNS or time.perf_counter() - start < seconds:
        sub = seed * SUBRUNS + len(reps) % SUBRUNS
        rep = Rep(cls, sub, setup_budget_s=SETUP_BUDGET_S)
        if sub in first:
            first[sub].check_same(rep, f"repetition {len(reps) + 1}")
        else:
            first[sub] = rep
        reps.append(rep)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = machine.REFERENCE_SPEED
    speeds = [r.ops_per_wall_s for r in reps]
    scaled = [r.ops_per_wall_s * ref / r.machine_speed for r in reps]
    setups = [s for r in reps for s in r.setup_samples]
    scaled_setups = [s * r.machine_speed / ref
                     for r in reps for s in r.setup_samples]
    metrics = [
        Metric("nfs_ops_per_wall_s", median(scaled), "ops/s",
               f"median of {len(reps)} reps at reference machine speed; "
               f"raw median {median(speeds):.0f}"),
        Metric("setup_s", median(scaled_setups), "s",
               f"median of {len(setups)} set-ups at reference machine "
               f"speed; raw median {median(setups):.4g}"),
        Metric("peak_rss_mb", rss_mb, "MB"),
        Metric("machine_speed", median([r.machine_speed for r in reps]),
               "steps/s", f"calibration loop; reference {ref:.0f}"),
    ]
    metrics += simulated_metrics(cls, [first[s].raw for s in sorted(first)])
    metrics.append(failure_metric(reps))
    return reps, metrics


def run_traced(cls, seed: int):
    from layers import Instrumentation, LayerClock
    from perlayer import classify, layer_metrics, snapshot
    from repro.obs import TraceChecker, Tracer

    sub = seed * SUBRUNS
    plain = Rep(cls, sub)
    instr = Instrumentation(LayerClock())
    marks = {}

    def start_phase(w):
        classify(w, instr)
        marks["before"] = snapshot(w, instr)
        instr.clock.reset()
        instr.resource_wait.clear()

    def end_phase(w):
        marks["after"] = snapshot(w, instr)

    instr.install()
    try:
        timed = Rep(cls, sub, before_measure=start_phase,
                    after_measure=end_phase, keep=True)
    finally:
        instr.remove()
    plain.check_same(timed, "layer-timed run vs untraced run")
    tracer = Tracer()
    checked = Rep(cls, sub, tracer=tracer)
    plain.check_same(checked, "traced run vs untraced run")
    TraceChecker(tracer).check()
    # The timed rep's wall time, corrected to the untraced rep's machine speed.
    timed_wall = timed.measure_s * timed.machine_speed / plain.machine_speed
    metrics = layer_metrics(timed.workload, instr, marks["before"],
                            marks["after"], plain.measure_s, timed_wall)
    metrics += [m for m in simulated_metrics(cls, [plain.raw])
                if m.name in TRACED_SIMULATED]
    reps = [plain, timed, checked]
    metrics.append(failure_metric(reps))
    return reps, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from metrics import result_json
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    try:
        if args.trace:
            reps, metrics = run_traced(cls, args.seed)
            names = None
        else:
            reps, metrics = run_untraced(cls, args.seed, args.seconds)
            names = E2E
    except GuardError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    print(f"workload {cls.name} seed {args.seed}: "
          f"{'closed' if cls.closed_loop else 'open'} loop, "
          f"{reps[0].working_set}; {len(reps)} reps")
    for metric in metrics:
        print(metric.line())
    print(result_json(failed == 0, attempted, failed, metrics, only=names))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
