"""The matverify benchmark.

    python3 perfbench/run.py --workload {verify,correct,cli} --seed N \
        --seconds S --trace {0,1}

Builds the workload's instances from the seed (numpy only), runs them
through matverify from this checkout's ``src/``, checks every result
against the truth known by construction, and prints each metric by name
with its unit. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off. Their times are in reference seconds: each operation's wall
time is scaled by how much slower or faster than the reference speed the
machine ran a fixed calibration (calib.py) just before and just after it.
On a shared host whose speed drifts by tens of percent between runs, this
keeps the figures of one program steady while every change to matverify
moves them as it moves wall time.

With ``--trace 1`` they are the per-layer ones, from traced rounds
interleaved with untraced ones (which give ``trace.overhead_frac``), plus
reference timings of the dense product, BLAS and Freivalds on the
``verify`` instances, which nothing gates. Their times are in reference
seconds too, scaled by the run's median calibration; ``wall.op_p50_s`` and
``machine.calib_s`` give the raw wall-clock median and that calibration.

Workloads, each a closed loop with one client over a fixed instance list:

- ``verify``: verify_product at t = n, n in {384, 512}. Most of the time
  is the chirp kernel on long progressions; no correction, no file I/O.
- ``correct``: correct_product and multiply_output_sensitive at n <= 128,
  including a second-prime case and a broken promise. The quadtree
  search, per-block evaluations and cache updates dominate.
- ``cli``: ``matverify.cli.main`` per operation on pre-written files, so
  parsing, writing and reporting are paid every time; its cold start is a
  fresh ``python -m matverify.cli`` process. Small t and multi-prime runs
  use the kernel differently from ``verify``.
"""

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import tracer as tracing
from instances import WORKLOADS, generate
from worker import run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170.0   # the whole run, set-up included, ends within this
SETUP_SAMPLES = 3     # cold starts per run; setup_s is their median
BLAS_THREADS = 1

# (name, unit, better); BENCHMARK.json lists the same
END_TO_END = (
    ("ops_per_s", "op/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)
PER_LAYER = tuple(m[:3] for m in tracing.PER_LAYER) + (
    ("trace.overhead_frac", "ratio", "lower"),
    ("ref.dense_int64_s", "s/op", "lower"),
    ("ref.blas_f64_s", "s/op", "lower"),
    ("ref.freivalds_s", "s/op", "lower"),
    # operations that disagreed with the truth, out of those attempted; not
    # end-to-end, where a metric is gated as a share of a median it could
    # only ever read 0 against
    ("failed_frac", "ratio", "lower"),
    # the raw wall-clock median and the machine speed behind the reference
    # seconds of every other time
    ("wall.op_p50_s", "s", "lower"),
    ("machine.calib_s", "s", "lower"),
)
# per-layer units that are reference seconds, and rates per reference second
_PER_SECOND_UNITS = ("1/s", "MB/s")


# The tail percentile per workload: the highest that leaves at least ten
# samples beyond it at the fewest samples a 38 s run gave when the benchmark
# was defined (32, 21 and 20 on a 2-core 2 GHz Xeon), and never below the
# median. It is fixed
# rather than derived from each run's count: a faster program takes more
# samples, and a percentile that rose with them could read slower although
# every operation got faster.
TAIL_PERCENTILE = {"verify": 65.0, "correct": 50.0, "cli": 50.0}


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """(value, samples beyond it) at a nearest-rank percentile."""
    xs = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def header(args) -> dict:
    import numpy

    commit = "unknown"   # a plain checkout has no commit to record
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }


def pin_to_one_cpu() -> int | None:
    """Keep this process and every process it starts on one CPU.

    Each CPU of a shared host runs at its own, drifting speed; on one CPU
    the calibrations between operations see the speed the operations ran
    at, in this process and in its children alike."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(work: Path, inst: Path, mode: str, args, deadline: float, refs=None) -> dict:
    out = work / f"result-{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--dir", str(inst), "--mode", mode,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--deadline", str(deadline), "--out", str(out)]
    if refs is not None:
        cmd += ["--refs", str(refs)]
    proc = run_child(cmd, deadline - time.monotonic(), env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "matverify" / "__init__.py").is_file():
        print(f"error: no matverify sources under {SRC}", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    head = dict(header(args), cpu=cpu)
    print("# " + " ".join(f"{k}={v}" for k, v in head.items()))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inst = work / "instances"
        generate(args.workload, args.seed, inst)
        refs = None
        if args.trace:
            refs = inst if args.workload == "verify" else work / "refs"
            if args.workload != "verify":
                generate("verify", args.seed, refs)
        probes = [run_worker(work, inst, "setup", args, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        measured = run_worker(work, inst, "measure", args, deadline, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    runs = probes + [measured]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for name in sorted({n for r in runs for n in r["failures"]}):
        print(f"# FAILED instance {name}")

    wall = measured["latencies"]
    lat = [w * f for w, f in zip(wall, measured["scales"])]
    pct = TAIL_PERCENTILE[args.workload]
    tail_value, beyond = tail(lat, pct)
    e2e = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in runs),
        "peak_rss_mib": measured["peak_rss_mib"],
    }
    units = {m[0]: m[1] for m in END_TO_END}
    for name, value in e2e.items():
        print(f"{name}={value:.6g} {units[name]}")
    print(f"# samples={len(lat)} passes={measured['passes']} tail=p{pct:g} "
          f"with {beyond} beyond "
          f"setup_samples={SETUP_SAMPLES} failed_frac={failed / attempted:.6g} ratio "
          f"({failed}/{attempted})")
    calib_s = statistics.median(measured["calibrations"])
    print(f"# wall op_p50={statistics.median(wall):.6g} s, calibration median "
          f"{calib_s:.6g} s against the reference {calib.REFERENCE_S:g} s")

    if args.trace:
        units = {m[0]: m[1] for m in PER_LAYER}
        factor = calib.REFERENCE_S / calib_s
        values = {}
        for name, value in measured["layers"].items():
            unit = units[name]
            if not isinstance(value, str) and unit.startswith("s"):
                value *= factor
            elif not isinstance(value, str) and unit in _PER_SECOND_UNITS:
                value /= factor
            values[name] = value
        values.update({"failed_frac": failed / attempted,
                       "wall.op_p50_s": statistics.median(wall),
                       "machine.calib_s": calib_s})
        for name, value in values.items():
            shown = value if isinstance(value, str) else f"{value:.6g}"
            print(f"{name}={shown} {units[name]}")
    else:
        values = e2e
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
