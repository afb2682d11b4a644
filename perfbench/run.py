"""Run one workload of the isoperiod benchmark and print its metrics.

    python3 perfbench/run.py --workload implicit-flow --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  One process makes closed-loop calls (one op after another) with
BLAS/OpenMP pinned to one thread, in whole passes over a pool of inputs
made from ``--seed``.  Op and set-up times are process CPU times scaled to
a reference machine speed by a calibration kernel timed next to them (see
calibrate and README.md).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced replay of the same ops.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` and ``failed`` count the pool's inputs once
each; an input fails if its op raised ``IsoperiodError`` or failed a
correctness check.  ``correct`` is false if an op returned a result that
fails its check, raised anything else, gave a different outcome in
another pass, or (traced) differs from the untraced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after pinning its BLAS threads)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
SETUP_CALS = 5
READY = "ready"
# median CPU seconds of calibrate() between ops on the machine this
# benchmark was written on (a two-core 2.1 GHz Xeon virtual machine on a
# shared host): times are reported at that speed (see reference_times)
CAL_REF_S = 0.0085
# ops whose calibrate() times, by their median, set the speed of the op
# in their middle: one kernel run is too short to be steady on its own
CAL_WINDOW = 21


def _import_package():
    if not (SRC / "isoperiod" / "__init__.py").is_file():
        sys.exit(f"run.py: no isoperiod sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import isoperiod
    if Path(isoperiod.__file__).resolve().parent != SRC / "isoperiod":
        sys.exit(f"run.py: imported isoperiod from {isoperiod.__file__}, not from {SRC}")
    import workloads
    return isoperiod, workloads


_CAL_SMALL = np.linspace(0.0, 1.0, 64) + 0.5j
_CAL_MEDIUM = np.linspace(0.0, 1.0, 512) + 0.3j


def calibrate() -> float:
    """CPU seconds of a fixed kernel that does not use isoperiod.

    An interpreter loop, then numpy calls and reductions on small and
    medium arrays, like the package's own mix.  Load on a shared host
    (other guests on the same cores and caches) slows this kernel and the
    ops run next to it alike.  On the machine of CAL_REF_S, twelve 20 s
    chunks of a 240 s loop over one pool gave median op times with a
    coefficient of variation of 8.2% (implicit-flow) and 6.9% (identities)
    in plain CPU time, and 1.9% and 1.6% once scaled by this kernel's
    median over CAL_WINDOW ops.
    """
    c0 = time.process_time()
    s = 0
    for i in range(25000):
        s += i * i % 7
    a = _CAL_SMALL
    for _ in range(200):
        a = np.exp(a * 1e-3) * 0.5 + _CAL_SMALL
        np.sum(a)
        np.abs(a).max()
    b = _CAL_MEDIUM
    for _ in range(150):
        b = np.sqrt(b * b + 1.0) * 0.5
        np.cumsum(b)
        np.angle(b)
    return time.process_time() - c0


class Op(NamedTuple):
    index: int
    cpu: float               # process CPU seconds; excludes time the host steals
    cal: float               # CPU seconds of calibrate() run right after the op
    result: object           # workloads.OpResult, or None if the op raised
    error: str | None
    unexpected: bool         # raised something other than IsoperiodError

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.result.failed_checks())

    @property
    def outcome(self) -> str:
        """Output digest, or the error raised: what repeats must reproduce."""
        return self.result.digest if self.result is not None else self.error

    @property
    def wrong(self) -> bool:
        return self.unexpected or (self.result is not None and bool(self.result.failed_checks()))


def measure_setup(workload: str, seed: int) -> list:
    """Seconds at reference speed of fresh interpreters from start to the inputs being ready.

    Each probe's CPU time is scaled by CAL_REF_S over the median of
    SETUP_CALS calibrate() runs that the probe makes once its inputs are ready.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
        word, *values = proc.stdout.split()
        if proc.returncode != 0 or word != READY or len(values) != 2:
            sys.exit(f"run.py: setup probe failed with exit code {proc.returncode}")
        cpu, cal = map(float, values)
        times.append(cpu * CAL_REF_S / cal)
    return times


def timed_op(isoperiod, w, idx, inp, tracer=None) -> Op:
    """Run one op, timing it and then calibrate() on the process CPU clock."""
    if tracer is not None:
        tracer.begin_op(idx)
    res, err, unexpected = None, None, False
    c0 = time.process_time()
    try:
        res = w.op(inp)
    except isoperiod.errors.IsoperiodError as exc:
        err = type(exc).__name__
    except Exception as exc:    # counted as a wrong result, never hidden
        err, unexpected = f"{type(exc).__name__}: {exc}", True
    cpu = time.process_time() - c0
    if tracer is not None:
        tracer.end_op()
    return Op(idx, cpu, calibrate(), res, err, unexpected)


def run_passes(isoperiod, w, pool, seconds, tracer=None):
    """Closed loop of whole passes over the seeded pool.

    The first pass always runs; another starts only if, at the speed of the
    last one, it ends within ``seconds`` of wall time from the start.  With
    a tracer, each op is run untraced and then again traced, so that both
    sides see the same machine state.  Returns the untraced passes and the
    traced ones, each a list of passes of one Op per pool input.
    """
    passes, traced = [], []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        plain, shadow = [], []
        for idx, inp in enumerate(pool):
            plain.append(timed_op(isoperiod, w, idx, inp))
            if tracer is not None:
                tracer.install()
                try:
                    shadow.append(timed_op(isoperiod, w, idx, inp, tracer))
                finally:
                    tracer.uninstall()
        passes.append(plain)
        traced.append(shadow)
        now = time.perf_counter()
        if now + (now - t_pass) - t_start > seconds:
            return passes, traced


def reference_times(passes):
    """Each op's CPU time at the speed of the machine of CAL_REF_S, by pass.

    The op's CPU time is scaled by CAL_REF_S over the median calibrate()
    time of the CAL_WINDOW ops around it in run order.
    """
    flat = [op for ops in passes for op in ops]
    cals = [op.cal for op in flat]
    h = CAL_WINDOW // 2
    scaled = [op.cpu * CAL_REF_S / statistics.median(cals[max(0, i - h):i + h + 1])
              for i, op in enumerate(flat)]
    n = len(passes[0])
    return [scaled[k:k + n] for k in range(0, len(scaled), n)]


def input_times(times):
    """Per pool input, the median of its times over the passes."""
    return [statistics.median(ts) for ts in zip(*times)]


def unrepeatable(passes):
    """Pool indices whose outcome differs between passes (ops must be deterministic)."""
    return [ops[0].index for ops in zip(*passes)
            if len({op.outcome for op in ops}) > 1]


def tail(times):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    s = sorted(times)
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(isoperiod, w, pool, args):
    setups = measure_setup(args.workload, args.seed)
    t0 = time.perf_counter()
    passes, _ = run_passes(isoperiod, w, pool, args.seconds)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = passes[0]
    ref = reference_times(passes)
    per_input = input_times(ref)
    raw = input_times([[op.cpu for op in ops] for ops in passes])
    ok = [i for i, op in enumerate(first) if not op.failed]
    times = [per_input[i] for i in ok]
    digits = [op.result.accuracy_digits() for op in first if op.result is not None]
    n_fail = len(first) - len(ok)
    tail_s, tail_pct = tail(times) if len(times) > 10 else (math.nan, math.nan)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # failed ops cost time too, so their time is in the denominator
        "ops_per_s": (len(ok) / sum(per_input), "1/s"),
        "op_p50_s": (statistics.median(times) if times else math.nan, "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        # the median, not the minimum: across seeds the minimum over the pool
        # spreads three to four times as much; a residual beyond its tolerance
        # fails the op whatever this value is
        "accuracy_digits": (statistics.median(digits) if digits else math.nan, "digits"),
    }
    cpu = sum(op.cpu for ops in passes for op in ops)
    lines = [f"setup probes {', '.join(f'{t:.3f}' for t in setups)} s",
             f"pool of {len(pool)} inputs: {len(ok)} ok, {n_fail} failed; "
             f"{len(passes)} passes in {cpu:.2f} s CPU, {wall:.2f} s wall",
             f"times are each input's median over the passes at reference speed; pass CPU "
             f"times {', '.join(f'{sum(op.cpu for op in ops):.3f}' for ops in passes)} s, at "
             f"reference speed {', '.join(f'{sum(ts):.3f}' for ts in ref)} s; calibrate() median "
             f"{statistics.median(op.cal for ops in passes for op in ops):.5f} s",
             f"op_tail_s is p{tail_pct:.1f} of {len(times)} successful inputs",
             f"at plain CPU time: op_p50_s {statistics.median(raw[i] for i in ok):.6g} s, "
             f"ops_per_s {len(ok) / sum(raw):.6g} 1/s" if ok else "no successful input",
             f"accuracy_digits over {len(digits)} inputs, min {min(digits, default=math.nan):.4g}",
             f"fail_frac {n_fail / len(first):.6g} frac"]
    errors = sorted({op.error for op in first if op.error is not None})
    if errors:
        lines.append(f"errors raised: {', '.join(errors)}")
    return passes, metrics, lines


def per_layer(isoperiod, w, pool, args):
    from spans import Tracer

    # one untimed op first, so that lazy imports and first-call set-up are
    # not charged to the untraced side of trace.overhead_frac
    timed_op(isoperiod, w, 0, pool[0])
    tracer = Tracer()
    passes, traced = run_passes(isoperiod, w, pool, args.seconds, tracer)
    mismatched = [a.index for a, b in zip(passes[0], traced[0]) if a.outcome != b.outcome]
    n_ops = sum(len(ops) for ops in traced)
    totals = tracer.layer_totals()
    metrics = {}
    for key, rec in totals.items():
        for k, v in rec.items():
            unit = "s/op" if k == "self_s" else "count/op"
            metrics[f"{key}.{k}"] = (v / n_ops, unit)
    samples = totals["flow.integrate_flow"]["samples"]
    metrics["periods.evals_per_sample"] = (
        totals["periods.normalized_basis"]["calls"] / samples if samples else 0.0, "count/sample")
    overhead = (sum(op.cpu for ops in traced for op in ops)
                / sum(op.cpu for ops in passes for op in ops) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    lines = [f"pool of {len(pool)} inputs, {len(passes)} passes run untraced and traced, "
             f"{len(tracer.start)} spans, overhead {overhead:+.1%}",
             f"bit-identical outputs: {len(pool) - len(mismatched)} of {len(pool)}"]
    return passes + traced, metrics, lines, mismatched


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    isoperiod, workloads = _import_package()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:            # a fresh interpreter timed by measure_setup
        workloads.make_inputs(args.workload, args.seed)
        cpu = time.process_time()
        cal = statistics.median(calibrate() for _ in range(SETUP_CALS))
        print(READY, cpu, cal, flush=True)
        return 0

    import scipy
    w = workloads.WORKLOADS[args.workload]
    pool = workloads.make_inputs(args.workload, args.seed)
    print(f"isoperiod benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, git {_git_revision()}, nproc {os.cpu_count()}, "
          f"threads pinned to 1")
    mismatched = []
    if args.trace:
        passes, metrics, lines, mismatched = per_layer(isoperiod, w, pool, args)
    else:
        passes, metrics, lines = end_to_end(isoperiod, w, pool, args)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    wrong = [op for ops in passes for op in ops if op.wrong]
    for op in wrong:
        print(f"WRONG op {op.index}: {op.error or op.result.failed_checks()}")
    for idx in mismatched:
        print(f"TRACE MISMATCH op {idx}")
    unrepeated = unrepeatable(passes)
    for idx in unrepeated:
        print(f"UNREPEATABLE op {idx}: outcome differs between passes")
    # attempted and failed count the pool's distinct inputs once each (the
    # first pass), so they do not depend on how many passes fit in the run
    result = {
        "correct": not wrong and not mismatched and not unrepeated,
        "attempted": len(pool),
        "failed": sum(op.failed for op in passes[0]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
