"""Command-line front end: instance generation with planted errors,
verification, correction, output-sensitive multiplication and reduction
export.

Reports are line-delimited key=value text on stdout. Exit codes:
0 equal/success, 1 not-equal, 2 promise violation, 64 usage error,
65 matrix parse error, 70 internal error.
"""

import argparse
import os
import sys
import time

import numpy as np

from .correct import correct_product, multiply_output_sensitive
from .errors import (
    InternalCheckError,
    MatrixParseError,
    PromiseViolationError,
    ResourceLimitError,
    UsageError,
)
from .field import build_crt_basis
from .matrix import IntMatrix, naive_multiply, read_matrix, write_matrix
from .reductions import (
    bmm_ones_certificate,
    bmm_zeroes_to_3sum,
    emit_upit_circuit,
    eval_circuit,
    serialize_circuit,
    serialize_three_sum,
    three_sum_bruteforce,
)
from .verify import (
    eval_fingerprint,
    fingerprint_rep,
    flawed_bilinear_test,
    freivalds_verify,
    kernel_path,
    sampling_verify,
    seeded_rng,
    verify_product,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # promise-violation code; route through the usage-error path instead
    def error(self, message):
        raise UsageError(message)


class _Report:
    def __init__(self, quiet: bool):
        self.quiet = quiet

    def emit(self, key, value):
        if not self.quiet:
            print(f"{key}={value}")

    def verdict(self, value):
        # the verdict line survives --quiet; single line, machine-parseable
        print(f"verdict={value}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int.from_bytes(os.urandom(8), "little")


def build_parser() -> _Parser:
    p = _Parser(prog="matverify", description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=None,
                   help="seed for any randomized step (recorded in the report)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a per-iteration trace of correction runs")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the report; keep the verdict line")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate A, B and a C with planted errors")
    g.add_argument("n", type=int)
    g.add_argument("z", type=int, help="number of perturbed entries of C")
    g.add_argument("--out-a", default="A.mat")
    g.add_argument("--out-b", default="B.mat")
    g.add_argument("--out-c", default="C.mat")

    v = sub.add_parser("verify", help="decide whether C = AB")
    v.add_argument("a")
    v.add_argument("b")
    v.add_argument("c")
    v.add_argument("t", type=int, help="error-count promise for det mode")
    v.add_argument("--mode", choices=("det", "freivalds", "sampling", "flawed"),
                   default="det")

    c = sub.add_parser("correct", help="recover AB from a C with <= t errors")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("c")
    c.add_argument("t", type=int)
    c.add_argument("--out", default="product.mat")

    o = sub.add_parser("osmm", help="multiply under an output-sparsity promise")
    o.add_argument("a")
    o.add_argument("b")
    o.add_argument("t", type=int, help="bound on nonzero entries of AB")
    o.add_argument("--out", default="product.mat")

    r = sub.add_parser("reduce", help="export a 3SUM instance or UPIT circuit")
    r.add_argument("--to", choices=("3sum", "upit"), required=True)
    r.add_argument("inputs", nargs="+",
                   help="A B C for 3sum; A B for upit")
    r.add_argument("--out", default=None)
    r.add_argument("--check", action="store_true",
                   help="run the brute-force oracle and report agreement")
    return p


def cmd_gen(args, rep: _Report) -> int:
    n, z = args.n, args.z
    if n < 1:
        raise UsageError("n must be >= 1")
    if not 0 <= z <= n * n:
        raise UsageError("z must lie in [0, n^2]")
    seed = _resolve_seed(args)
    rng = seeded_rng(seed)
    t0 = time.perf_counter()
    a = rng.integers(-9, 10, size=(n, n))
    b = rng.integers(-9, 10, size=(n, n))
    c = naive_multiply(a, b).data.copy()
    positions = rng.choice(n * n, size=z, replace=False)
    deltas = rng.integers(1, 10, size=z) * rng.choice((-1, 1), size=z)
    c.flat[positions] += deltas
    write_matrix(args.out_a, IntMatrix(a))
    write_matrix(args.out_b, IntMatrix(b))
    write_matrix(args.out_c, IntMatrix(c))
    rep.emit("command", "gen")
    rep.emit("n", n)
    rep.emit("z", z)
    rep.emit("seed", seed)
    rep.emit("out_a", args.out_a)
    rep.emit("out_b", args.out_b)
    rep.emit("out_c", args.out_c)
    rep.emit("wall_s", f"{time.perf_counter() - t0:.6f}")
    rep.verdict("generated")
    return 0


def cmd_verify(args, rep: _Report) -> int:
    a, b, c = read_matrix(args.a), read_matrix(args.b), read_matrix(args.c)
    rep.emit("command", "verify")
    rep.emit("mode", args.mode)
    rep.emit("t", args.t)
    stats = {"evaluations": 0}
    t0 = time.perf_counter()
    if args.mode == "det":
        equal = verify_product(a, b, c, args.t, stats=stats)
        rep.emit("evaluations", stats["evaluations"])
        rep.emit("kernel", kernel_path(stats))
        # CRT primes of the basis (0 when the probe refuted C before one
        # was built) and the most limbs of a chirp transform (0 without one)
        rep.emit("primes", stats.get("primes", 0))
        rep.emit("limbs", stats.get("limbs", 0))
        # nonzero: the all-ones sum refuted C; zero: the fingerprint decided
        rep.emit("probe", "nonzero" if stats.get("probe_exits") else "zero")
    elif args.mode == "freivalds":
        seed = _resolve_seed(args)
        rep.emit("seed", seed)
        equal = freivalds_verify(a, b, c, reps=20, seed=seed)
    elif args.mode == "sampling":
        seed = _resolve_seed(args)
        rep.emit("seed", seed)
        equal = sampling_verify(a, b, c, seed=seed)
    else:  # the known-broken baseline, kept for comparison runs
        probes = list(range(2 * a.rows - 1))
        values = flawed_bilinear_test(a, b, c, probes)
        rep.emit("probes", ",".join(str(r) for r in probes))
        rep.emit("probe_values", ",".join(str(v) for v in values))
        equal = all(v == 0 for v in values)
    rep.emit("wall_s", f"{time.perf_counter() - t0:.6f}")
    rep.verdict("equal" if equal else "not_equal")
    return 0 if equal else 1


def _run_correction(args, rep: _Report, osmm: bool) -> int:
    # every input is parsed before the trace file is truncated or the
    # clock starts, so a parse error leaves an old trace as it was
    a, b = read_matrix(args.a), read_matrix(args.b)
    c = None if osmm else read_matrix(args.c)
    trace_file = open(args.trace, "w") if args.trace else None
    try:
        t0 = time.perf_counter()
        if osmm:
            result = multiply_output_sensitive(a, b, args.t, trace=trace_file)
        else:
            result = correct_product(a, b, c, args.t, trace=trace_file)
        wall = time.perf_counter() - t0
    finally:
        if trace_file is not None:
            trace_file.close()
    write_matrix(args.out, result.product)
    rep.emit("command", "osmm" if osmm else "correct")
    rep.emit("t", args.t)
    rep.emit("out", args.out)
    rep.emit("engine", result.engine)
    rep.emit("corrections", result.correction_count)
    rep.emit("max_granularity", result.max_granularity)
    rep.emit("evaluations", result.evaluations)
    rep.emit("kernel", result.kernel)
    rep.emit("prime_passes", result.prime_passes)
    rep.emit("wall_s", f"{wall:.6f}")
    rep.verdict("success")
    return 0


def cmd_reduce(args, rep: _Report) -> int:
    rep.emit("command", "reduce")
    rep.emit("to", args.to)
    if args.to == "3sum":
        if len(args.inputs) != 3:
            raise UsageError("3sum reduction needs A B C")
        a, b, c = (read_matrix(pth) for pth in args.inputs)
        inst = bmm_zeroes_to_3sum(a, b, c)
        out = args.out or "instance.3sum"
        with open(out, "w") as fh:
            fh.write(serialize_three_sum(inst))
        rep.emit("out", out)
        rep.emit("s1_size", len(inst.s1))
        rep.emit("s2_size", len(inst.s2))
        rep.emit("s3_size", len(inst.s3))
        rep.emit("base", inst.base)
        if args.check:
            cert = bmm_ones_certificate(a, b, c)
            hit = three_sum_bruteforce(inst.s1, inst.s2, inst.s3)
            ok = cert.ok and not hit
            bool_prod = (a.data.astype(np.int64) @ b.data.astype(np.int64)) > 0
            truth = np.array_equal(bool_prod.astype(np.int64), c.data)
            rep.emit("three_sum", "YES" if hit else "NO")
            rep.emit("ones_witnessed", str(cert.ok).lower())
            rep.emit("agreement", str(ok == truth).lower())
            rep.emit("check", "NO instance, C verified" if ok
                     else "YES instance or missing witness, C differs")
            rep.verdict("equal" if ok else "not_equal")
            return 0 if ok else 1
    else:
        if len(args.inputs) != 2:
            raise UsageError("upit reduction needs A B")
        a, b = (read_matrix(pth) for pth in args.inputs)
        n = a.rows
        bound = max(n * a.max_abs * b.max_abs, 1)
        ctx = build_crt_basis(n, bound).fields[0]
        circ = emit_upit_circuit(a, b, ctx)
        out = args.out or "circuit.upit"
        with open(out, "w") as fh:
            fh.write(serialize_circuit(circ))
        rep.emit("out", out)
        rep.emit("gates", len(circ.gates))
        rep.emit("wires", circ.wire_count)
        rep.emit("degree", circ.degree)
        rep.emit("modulus", circ.modulus)
        if args.check:
            seed = _resolve_seed(args)
            rep.emit("seed", seed)
            rng = seeded_rng(seed)
            frep = fingerprint_rep(a, b, ctx)
            probes = [int(x) for x in rng.integers(0, ctx.p, size=8)]
            direct = eval_fingerprint(frep, probes)
            through = [eval_circuit(circ, x, ctx) for x in probes]
            agree = direct == through
            rep.emit("agreement", str(agree).lower())
            rep.verdict("equal" if agree else "not_equal")
            return 0 if agree else 1
    rep.verdict("written")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is not None and args.seed < 0:   # before any report line
            raise UsageError(f"seed must be >= 0, got {args.seed}")
        rep = _Report(args.quiet)
        if args.command == "gen":
            return cmd_gen(args, rep)
        if args.command == "verify":
            return cmd_verify(args, rep)
        if args.command == "correct":
            return _run_correction(args, rep, osmm=False)
        if args.command == "osmm":
            return _run_correction(args, rep, osmm=True)
        return cmd_reduce(args, rep)
    except UsageError as exc:
        print(f"error=usage detail={exc}", file=sys.stderr)
        return 64
    except MatrixParseError as exc:
        print(f"error=parse detail={exc}", file=sys.stderr)
        return 65
    except PromiseViolationError as exc:
        print(f"error=promise_violation corrections={exc.corrections} "
              f"position={exc.position}")
        print("verdict=promise_violation")
        return 2
    except OSError as exc:
        print(f"error=usage detail={exc}", file=sys.stderr)
        return 64
    except (ResourceLimitError, InternalCheckError) as exc:
        print(f"error=internal detail={exc}", file=sys.stderr)
        return 70
    except Exception as exc:  # pragma: no cover - last-resort mapping
        print(f"error=internal detail={exc!r}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
