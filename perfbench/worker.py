"""One benchmark process: runs a workload's instances and checks each result.

Spawned by run.py, never imported by the code under test. Two modes:

- ``setup``: time ``import matverify`` plus the first, cold operation, and
  exit. For ``cli`` the cold start is one whole ``python -m matverify.cli``
  process.
- ``measure``: the same cold start, then a closed loop, one client, of
  whole rounds of the instance list (see instances.py), taken in turn,
  until the next round would overrun ``--seconds``. With ``--trace 1``
  rounds alternate untraced and traced; the traced ones feed the per-layer
  metrics and the tracing overhead.

A calibration (calib.py) runs before the cold start and after every
operation; each operation's time is also reported normalised to the
reference machine speed by the calibrations on either side of it.

The result is written as JSON to ``--out``. Only the standard library is
imported before the cold start is timed.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import calib
import tracer as tracing

perf = time.perf_counter


def run_child(cmd, timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run in its own session; on timeout the whole process group
    is killed and reaped before the error propagates."""
    with subprocess.Popen(cmd, start_new_session=True, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


# -- checking ----------------------------------------------------------------


def read_mat(path: Path):
    """The matverify text format, parsed with numpy for checking only."""
    import numpy as np

    lines = path.read_text(encoding="utf-8").split("\n")
    rows, cols = (int(v) for v in lines[0].split())
    data = np.array([ln.split() for ln in lines[1 : 1 + rows]], dtype=np.int64)
    if data.shape != (rows, cols) or any(ln.strip() for ln in lines[1 + rows :]):
        raise ValueError(f"{path.name}: malformed matrix file")
    return data


def check(rec: dict, outcome: tuple, inst_dir: Path) -> bool:
    """Whether an in-process outcome ('ok', value) or ('raised', type name)
    matches the truth known by construction."""
    import numpy as np

    expect = rec["expect"]
    kind, value = outcome
    if "raises" in expect:
        return kind == "raised" and value == expect["raises"]
    if kind != "ok":
        return False
    if "equal" in expect:
        return isinstance(value, (bool, np.bool_)) and bool(value) == expect["equal"]
    truth = np.load(inst_dir / f"{expect['product']}.npy")
    value = np.asarray(value)
    return value.shape == truth.shape and bool(np.array_equal(value, truth))


def check_cli(rec: dict, code: int, stdout: str, inst_dir: Path) -> bool:
    """Exit code, the single verdict= line, and for correction the written
    product and one trace line per correction."""
    import numpy as np

    expect = rec["expect"]
    if code != expect["exit"]:
        return False
    verdicts = [ln[len("verdict="):] for ln in stdout.splitlines()
                if ln.startswith("verdict=")]
    if verdicts != [expect["verdict"]]:
        return False
    try:
        if "out" in expect:
            truth = np.load(inst_dir / f"{expect['out']}.npy")
            if not np.array_equal(read_mat(inst_dir / "out.mat"), truth):
                return False
        if "trace_lines" in expect:
            text = (inst_dir / "trace.txt").read_text(encoding="utf-8")
            if len([ln for ln in text.splitlines() if ln.strip()]) != expect["trace_lines"]:
                return False
    except (OSError, ValueError):
        return False
    return True


# -- operations --------------------------------------------------------------


class InProcess:
    """Every operation through matverify in this process: verify, correct
    and osmm through the public API; cli through ``matverify.cli.main`` on
    the instance's files, with its report captured."""

    def __init__(self, mv, base: Path):
        self.mv = mv
        self.base = base

    def run(self, rec: dict):
        import numpy as np

        d = self.base / rec["dir"]
        if rec["op"] == "cli":
            return self._run_cli(rec, d)
        arrays = {k: np.load(d / f"{k}.npy")
                  for k in ("a", "b", "c") if (d / f"{k}.npy").exists()}
        mv, t, op = self.mv, rec["t"], rec["op"]
        t0 = perf()
        try:
            if op == "verify":
                value = mv.verify_product(arrays["a"], arrays["b"], arrays["c"], t)
            elif op == "correct":
                value = mv.correct_product(arrays["a"], arrays["b"], arrays["c"], t).product.data
            else:
                value = mv.multiply_output_sensitive(arrays["a"], arrays["b"], t).product.data
            outcome = ("ok", value)
        except Exception as exc:
            outcome = ("raised", type(exc).__name__)
        latency = perf() - t0
        return latency, check(rec, outcome, d)

    def _run_cli(self, rec: dict, d: Path):
        cli = importlib.import_module("matverify.cli")
        for name in ("out.mat", "trace.txt"):
            (d / name).unlink(missing_ok=True)
        report = io.StringIO()
        here = os.getcwd()
        os.chdir(d)   # the argv names the instance's files relative to it
        try:
            with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
                t0 = perf()
                code = cli.main(rec["argv"])
                latency = perf() - t0
        finally:
            os.chdir(here)
        return latency, check_cli(rec, code, report.getvalue(), d)


def cold_cli(rec: dict, base: Path, deadline: float):
    """The cli workload's cold start: one fresh ``python -m matverify.cli``,
    which pays interpreter start, imports and cold caches."""
    d = base / rec["dir"]
    for name in ("out.mat", "trace.txt"):
        (d / name).unlink(missing_ok=True)
    t0 = perf()
    proc = run_child([sys.executable, "-m", "matverify.cli", *rec["argv"]],
                     deadline - time.monotonic(), cwd=d)
    latency = perf() - t0
    return latency, check_cli(rec, proc.returncode, proc.stdout, d)


# -- reference timings -------------------------------------------------------


def reference_timings(mv, ref_dir: Path) -> dict:
    """Dense int64 product, exact float64 BLAS product and Freivalds, per
    instance of the verify workload. Reported beside the metrics, never
    gated."""
    import numpy as np

    manifest = json.loads((ref_dir / "manifest.json").read_text())
    sums = {"ref.dense_int64_s": 0.0, "ref.blas_f64_s": 0.0, "ref.freivalds_s": 0.0}
    for rec in manifest["instances"]:
        d = ref_dir / rec["dir"]
        a, b, c = (np.load(d / f"{k}.npy") for k in ("a", "b", "c"))
        t0 = perf()
        a @ b
        t1 = perf()
        af, bf = a.astype(np.float64), b.astype(np.float64)
        t2 = perf()
        af @ bf
        t3 = perf()
        mv.freivalds_verify(a, b, c)
        t4 = perf()
        sums["ref.dense_int64_s"] += t1 - t0
        sums["ref.blas_f64_s"] += t3 - t2
        sums["ref.freivalds_s"] += t4 - t3
    return {k: v / len(manifest["instances"]) for k, v in sums.items()}


# -- driver ------------------------------------------------------------------


def _import_matverify():
    import matverify

    src = os.environ.get("PERFBENCH_SRC", "")
    if not src or not Path(matverify.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"matverify imported from {matverify.__file__}, not {src}")
    return matverify


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", type=Path, default=None)
    ap.add_argument("--deadline", type=float, required=True,
                    help="time.monotonic() value by which the worker must be done")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    manifest = json.loads((args.dir / "manifest.json").read_text())
    records = manifest["instances"]
    rounds: dict[int, list] = {}
    for rec in records:
        rounds.setdefault(rec["round"], []).append(rec)
    rounds = [rounds[r] for r in sorted(rounds)]
    is_cli = manifest["workload"] == "cli"
    res = {"attempted": 0, "failed": 0, "failures": []}

    def account(rec, ok):
        res["attempted"] += 1
        if not ok:
            res["failed"] += 1
            res["failures"].append(rec["name"])

    tracer = tracing.Tracer() if args.trace else None
    cal_before = calib.calibrate()
    # cold start: import plus the first operation
    if is_cli:
        latency, ok = cold_cli(records[0], args.dir, args.deadline)
        res["setup_s"] = latency
    else:
        t0 = perf()
        mv = _import_matverify()
        imported = perf() - t0
        runner = InProcess(mv, args.dir)
        latency, ok = runner.run(records[0])
        res["setup_s"] = imported + latency
    cal_prev = calib.calibrate()
    res["setup_scale"] = calib.scale(cal_before, cal_prev)
    account(records[0], ok)
    if args.mode == "setup":
        args.out.write_text(json.dumps(res))
        return 0
    if is_cli:
        # the loop calls cli.main in this process: a fresh process per
        # operation spends a third of it starting up, at a speed the
        # calibrations follow far worse than computing. An untimed first
        # call fills the caches, as the cold start did in its process.
        runner = InProcess(_import_matverify(), args.dir)
        account(records[0], runner.run(records[0])[1])
        cal_prev = calib.calibrate()

    installed = None
    latencies = []   # untraced operations, wall seconds
    scales = []      # the factor to reference seconds of each
    cals = []
    busy = {False: [0.0, 0], True: [0.0, 0]}   # traced? -> [reference op seconds, ops]
    walls = []
    start = perf()
    while True:
        traced = bool(args.trace) and len(walls) % 2 == 1
        if traced:
            installed = tracing.install(tracer)
        t_pass = perf()
        for rec in rounds[len(walls) % len(rounds)]:
            latency, ok = runner.run(rec)
            cal = calib.calibrate()
            factor = calib.scale(cal_prev, cal)
            cal_prev = cal
            cals.append(cal)
            account(rec, ok)
            busy[traced][0] += latency * factor
            busy[traced][1] += 1
            if not traced:
                latencies.append(latency)
                scales.append(factor)
        walls.append(perf() - t_pass)
        if installed is not None:
            installed.uninstall()
            installed = None
        done = len(walls) >= (2 if args.trace else 1)
        if done and perf() - start + max(walls[-2:]) > args.seconds:
            break

    res["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["latencies"] = latencies
    res["scales"] = scales
    res["calibrations"] = cals
    res["passes"] = len(walls)
    if args.trace:
        traced_ops = busy[True][1]
        res["layers"] = tracing.layer_metrics(tracer, traced_ops)
        res["layers"]["trace.overhead_frac"] = (
            (busy[True][0] / traced_ops) / (busy[False][0] / busy[False][1]) - 1.0)
        if args.refs is not None:
            mv = _import_matverify()
            res["layers"].update(reference_timings(mv, args.refs))
    args.out.write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
