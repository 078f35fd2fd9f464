"""Layer-ladder benchmark of fastslow: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload cells_r4 --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` and nowhere else.  Rounds of the workload's operations
run back to back until ``--seconds`` have passed (the round in progress
finishes).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` - the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  A traced
run alternates each round untraced and traced on the same inputs; its
per-layer numbers come from the traced passes and ``trace.overhead`` is the
median ratio of the two.  Each run also writes its record (environment,
timings, check details) and, when traced, its spans under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
THREAD_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_s": "s",
    "ess": "count",
    "path_steps_per_s": "1/s",
}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import fastslow; "
                "print(time.perf_counter() - t); print(fastslow.__file__)")


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC)


def _import_seconds() -> float:
    """Time of ``import fastslow`` in a fresh interpreter that sees only ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not _inside_src(lines[1]):
        raise SystemExit(f"fastslow did not import from {SRC}: {proc.stderr.strip()}")
    return float(lines[0])


def _environment(fastslow) -> dict:
    import numpy as np
    return {
        "rng_backend": fastslow.rng.backend_name(),
        "fastslow": fastslow.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _timed_round(ops):
    """Run one round; returns [(seconds, output or the error it raised)]."""
    from fastslow import FastslowError
    done = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op()
        except FastslowError as exc:
            done.append((time.perf_counter() - t0, exc))
            continue
        done.append((time.perf_counter() - t0, out))
    return done


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one BLAS thread, set before numpy is first imported; the RNG backend is
    # left to the program's own choice and recorded
    for var in THREAD_POOLS:
        os.environ[var] = "1"
    os.environ.pop("FASTSLOW_RNG", None)

    if not (SRC / "fastslow" / "__init__.py").is_file():
        print(f"no fastslow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fastslow
    if not _inside_src(fastslow.__file__):
        print(f"fastslow imported from {fastslow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    setup = []
    for _ in range(SETUP_REPEATS):
        t_import = _import_seconds()
        t0 = time.perf_counter()
        work = cls(args.seed)
        setup.append(t_import + time.perf_counter() - t0)

    tracer = None
    if args.trace:
        import spans as tracing
        tracer = tracing.Tracer()

    attempted = failed = 0
    op_s, round_s, round_steps, steps_per_s, ess, overhead = [], [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        done = _timed_round(work.ops(r))
        if tracer is not None:
            tracer.round = r
            tracer.install()
            try:
                traced = _timed_round(work.ops(r))
            finally:
                tracer.uninstall()
            for (_, a), (_, b) in zip(done, traced):
                work.checks.require(
                    isinstance(a, Exception) == isinstance(b, Exception)
                    and (isinstance(a, Exception) or work.fingerprint(a) == work.fingerprint(b)),
                    f"round {r}: traced output differs from untraced")
            overhead.append(sum(t for t, _ in traced) / sum(t for t, _ in done))
            done_all = done + traced
        else:
            done_all = done
        attempted += len(done_all)
        failed += sum(isinstance(out, Exception) for _, out in done_all)
        wall = sum(t for t, _ in done)
        round_s.append(wall)
        op_s.extend(t for t, _ in done)
        steps = 0
        for i, (_, out) in enumerate(done):
            if not isinstance(out, Exception):
                work.observe(r, i, out)
                ess.append(work.ess(out))
                steps += work.path_steps(out)
        round_steps.append(steps)
        steps_per_s.append(steps / wall)
        r += 1

    correct, detail = work.checks.verdict()
    if tracer is not None:
        metrics = tracer.layer_metrics(r, statistics.median(overhead))
        units = tracing.PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(round_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_s": statistics.median(op_s),
            "ess": statistics.fmean(ess) if ess else 0.0,
            "path_steps_per_s": statistics.median(steps_per_s),
        }
        units = END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(fastslow),
        "rounds": r, "round_s": round_s, "round_path_steps": round_steps,
        "op_s": op_s, "setup_s": setup, "checks": detail, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps({
            "columns": ["round", "parent", "name", "layer", "start_ns", "end_ns", "counts"],
            "spans": tracer.spans}) + "\n")

    print("environment " + json.dumps(record["environment"]))
    print("checks " + json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
