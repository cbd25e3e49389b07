"""Deciding whether a claimed product is correct: an exact all-ones sum
that refutes most wrong products at once, the deterministic all-zeroes
test on the augmented pair, its integer-level lift through a CRT basis,
randomized baselines, and a deliberately flawed bilinear probe kept as a
negative control."""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .field import FieldCtx, build_crt_basis, reduce_mod
from .matrix import IntMatrix, augment, exact_dot, square_matrices
from .poly import ProgressionPlan, horner_many, rows_per_block
from .poly import progression_eval  # noqa: F401  perfbench's tracer patches it here

_I64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class FingerprintRep:
    """Factorized form of a block's product fingerprint.

    For factors L (rows x K) and R (K x cols) restricted to a side x side
    block at (i0, j0), the fingerprint is the univariate polynomial

        sum over block entries of (LR)_{i,j} * X^((i-i0) + side*(j-j0)),

    whose nonzero monomials biject with the block's nonzero product entries
    ((i-i0) + side*(j-j0) is injective on the block). It is never expanded:
    left_polys[k] holds column k of L over the block rows, right_polys[k]
    holds row k of R over the block columns, and the value at a point x is
    sum_k left_k(x) * right_k(x^side).
    """

    ctx: FieldCtx
    side: int
    left_polys: np.ndarray   # (K, side), reduced mod p
    right_polys: np.ndarray  # (K, side), reduced mod p


def fingerprint_rep(
    left: np.ndarray,
    right: np.ndarray,
    ctx: FieldCtx,
    i_start: int = 0,
    j_start: int = 0,
    side: int | None = None,
) -> FingerprintRep:
    """Slice per-inner-index coefficient vectors out of the factors.
    Entries already reduced to int64 in [0, p) pass through as views."""
    left = left.data if isinstance(left, IntMatrix) else np.asarray(left)
    right = right.data if isinstance(right, IntMatrix) else np.asarray(right)
    if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[0]:
        raise UsageError("factors must be 2-d with matching inner dimension")
    if side is None:
        side = left.shape[0]
    if side < 1 or i_start < 0 or j_start < 0:
        raise UsageError("block needs side >= 1 and nonnegative starts")
    if i_start + side > left.shape[0] or j_start + side > right.shape[1]:
        raise UsageError("block exceeds factor dimensions")
    lp = reduce_mod(left[i_start : i_start + side, :].T, ctx.p)
    rp = reduce_mod(right[:, j_start : j_start + side], ctx.p)
    return FingerprintRep(ctx=ctx, side=side, left_polys=lp, right_polys=rp)


def _active_rows(rep: FingerprintRep) -> np.ndarray:
    # skip inner indices whose column (or row) vanishes on the block
    return np.nonzero(rep.left_polys.any(axis=1) & rep.right_polys.any(axis=1))[0]


def eval_fingerprint(rep: FingerprintRep, points) -> list[int]:
    """Fingerprint values at arbitrary points: sum_k q_k(x) * r_k(x^side)."""
    p = rep.ctx.p
    pts = np.array([int(x) % p for x in points], dtype=np.int64)
    if pts.size == 0:
        return []
    pts_side = np.array([pow(int(x), rep.side, p) for x in pts], dtype=np.int64)
    acc = np.zeros(len(pts), dtype=np.int64)
    for k in _active_rows(rep):
        qv = horner_many(rep.left_polys[k], pts, p)
        rv = horner_many(rep.right_polys[k], pts_side, p)
        acc = (acc + qv * rv) % p
    return [int(v) for v in acc]


def eval_fingerprint_progression(
    rep: FingerprintRep,
    start_exp: int,
    count: int,
    stats: dict | None = None,
    grid: int = 1,
) -> np.ndarray:
    """Fingerprint values at omega^(start_exp + u) for u = 0..count-1.

    With grid = g > 1 the block is read as a g x g grid of sub-blocks of
    side h = side // g, and each sub-block's own fingerprint is evaluated:
    entry [a, b] of the (g, g, count) result belongs to the sub-block at
    rows a*h.. and columns b*h.. of the block. Sub-blocks in one grid row
    share their left polynomials (ratio omega), those in one grid column
    share their right ones (ratio omega^h), and all share the progression,
    so each side goes through the kernel once for the whole grid.

    Both sides take one ProgressionPlan per call. The raw kernel outputs
    of each block of inner indices are multiplied and summed in int64,
    reduced only when the next block could overflow the sum, and the two
    post-scales are applied once to the total.
    """
    ctx = rep.ctx
    p = ctx.p
    if count < 0:
        raise UsageError("count must be >= 0")
    if grid < 1 or rep.side % grid:
        raise UsageError("grid must divide the block side")
    side = rep.side // grid
    acc = np.zeros((grid, grid, count), dtype=np.int64)
    left = rep.left_polys.reshape(-1, grid, side)
    right = rep.right_polys.reshape(-1, grid, side)
    # inner index k feeds sub-block (a, b) when both of its halves are nonzero
    live = left.any(axis=2)[:, :, None] & right.any(axis=2)[:, None, :]
    active = np.nonzero(live.any(axis=(1, 2)))[0]
    if count and active.size:
        ratio_r = pow(ctx.omega, side, p)
        plan_q = ProgressionPlan(side, pow(ctx.omega, start_exp, p), ctx.omega, count, p)
        plan_r = ProgressionPlan(side, pow(ratio_r, start_exp, p), ratio_r, count, p)
        # how many products, each at most (p - 1)^2, int64 holds on top of
        # a reduced sum
        budget = (_I64_MAX - (p - 1)) // (p - 1) ** 2
        step = max(1, min(rows_per_block(side, count) // grid, budget))
        pending = 0
        for r0 in range(0, len(active), step):
            rows = active[r0 : r0 + step]
            if pending + len(rows) > budget:
                acc %= p
                pending = 0
            zq = plan_q.raw(left[rows].reshape(-1, side)).reshape(-1, grid, 1, count)
            zr = plan_r.raw(right[rows].reshape(-1, side)).reshape(-1, 1, grid, count)
            acc += (zq * zr).sum(axis=0)
            pending += len(rows)
        acc %= p
        acc *= plan_q.post * plan_r.post % p
        acc %= p
    if stats is not None:
        stats["evaluations"] = stats.get("evaluations", 0) + count * int(live.sum())
    return acc[0, 0] if grid == 1 else acc


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of the all-zeroes test: sound NONZERO witness, or ZERO
    (correct whenever the true nonzero count is within the budget)."""

    all_zero: bool
    witness: int | None   # least exponent nu with a nonzero value
    checked: int          # points actually evaluated (after clamping)


def all_zeroes_test(
    left, right, t: int, ctx: FieldCtx, stats: dict | None = None
) -> ZeroVerdict:
    """Decide whether left @ right == 0 by evaluating the fingerprint at
    omega^0..omega^(t-1). NONZERO answers are unconditionally sound; ZERO is
    correct whenever the product has at most t nonzero entries."""
    if t < 1:
        raise UsageError("t must be >= 1")
    right = right.data if isinstance(right, IntMatrix) else np.asarray(right)
    rep = fingerprint_rep(left, right, ctx)   # checks the dimensions first
    side = rep.side
    if right.shape[1] != side:
        raise UsageError("product of the pair must be square")
    if ctx.order_lb < side * side:
        raise UsageError("omega order bound below side^2")
    t_eff = min(t, side * side)
    vals = eval_fingerprint_progression(rep, 0, t_eff, stats)
    nz = np.nonzero(vals)[0]
    if nz.size:
        return ZeroVerdict(all_zero=False, witness=int(nz[0]), checked=t_eff)
    return ZeroVerdict(all_zero=True, witness=None, checked=t_eff)


def _ones_probe(a: IntMatrix, b: IntMatrix, c: IntMatrix) -> int:
    """1^T (AB - C) 1 = colsum(A) . rowsum(B) - sum(C), exactly over the
    integers: the sum of all entries of AB - C, which is the fingerprint at
    omega^0 before any reduction. Each product runs in int64 when its
    partial sums stay below 2^62, in Python ints otherwise."""
    n = a.rows
    ones = np.ones(n, dtype=np.int64)
    col_a = exact_dot(ones, a.data, 1, a.max_abs)
    row_b = exact_dot(b.data, ones, b.max_abs, 1)
    row_c = exact_dot(c.data, ones, c.max_abs, 1)
    ab = exact_dot(col_a, row_b, n * a.max_abs, n * b.max_abs)
    return int(ab) - int(exact_dot(ones, row_c, 1, n * c.max_abs))


def verify_product(a, b, c, t: int, stats: dict | None = None) -> bool:
    """True iff C = AB, guaranteed whenever they differ in at most t entries.
    False answers are always correct.

    A nonzero sum of all entries of AB - C (_ones_probe) refutes C at once,
    once per call; it is counted in stats["probe_exits"]. Otherwise the
    pair is augmented to (A | C), (B ; -I), a CRT basis covering the
    augmented magnitude bound is built (build_crt_basis caches it per
    (n, bound)), and the all-zeroes test must pass mod every prime.
    """
    a, b, c, n = square_matrices(a, b, c)
    if t < 1:
        raise UsageError("t must be >= 1")
    if _ones_probe(a, b, c):
        if stats is not None:
            stats["probe_exits"] = stats.get("probe_exits", 0) + 1
        return False
    pair = augment(a, b, c)
    basis = build_crt_basis(n, pair.magnitude_bound())
    for ctx in basis.fields:
        ap, bp = pair.reduced(ctx)
        if not all_zeroes_test(ap, bp, t, ctx, stats).all_zero:
            return False
    return True


def seeded_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so runs are reproducible from the seed."""
    return np.random.Generator(np.random.Philox(seed))


def freivalds_verify(a, b, c, reps: int = 20, seed: int = 0) -> bool:
    """Classic randomized check: random 0/1 vector v, compare Cv to A(Bv).
    False positives have probability at most 2^-reps over the seed stream."""
    a, b, c, n = square_matrices(a, b, c)
    if reps < 1:
        raise UsageError("reps must be >= 1")
    rng = seeded_rng(seed)
    for _ in range(reps):
        v = rng.integers(0, 2, size=n).astype(np.int64)
        bv = exact_dot(b.data, v, b.max_abs, 1)
        abv = exact_dot(a.data, bv, a.max_abs, n * b.max_abs)
        cv = exact_dot(c.data, v, c.max_abs, 1)
        if not np.array_equal(abv, cv):
            return False
    return True


def sampling_verify(a, b, c, seed: int = 0) -> bool:
    """Deterministic test at budget t = n, then 4n seeded random entries
    checked by exact inner products. Deterministically correct up to n
    errors; constant-probability correct beyond."""
    a, b, c, n = square_matrices(a, b, c)
    if not verify_product(a, b, c, t=n):
        return False
    rng = seeded_rng(seed)
    for _ in range(4 * n):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        inner = exact_dot(a.data[i], b.data[:, j], a.max_abs, b.max_abs)
        if inner != int(c.data[i, j]):
            return False
    return True


def flawed_bilinear_test(a, b, c, points) -> list[int]:
    """The broken bilinear probe kept as a negative control: values of
    x(r)^T (AB - C) x(r) with x(r) = (1, r, ..., r^(n-1)).

    Antisymmetric differences make this vanish identically even when
    AB != C, which is exactly what the real test must not do.
    """
    a, b, c, n = square_matrices(a, b, c)
    out = []
    for r in points:
        r = int(r)
        x = [1] * n
        for i in range(1, n):
            x[i] = x[i - 1] * r
        xa = [sum(int(a.data[i, k]) * x[i] for i in range(n)) for k in range(n)]
        bx = [sum(int(b.data[k, j]) * x[j] for j in range(n)) for k in range(n)]
        cx = [sum(int(c.data[i, j]) * x[j] for j in range(n)) for i in range(n)]
        quad = sum(xa[k] * bx[k] for k in range(n))
        quad -= sum(x[i] * cx[i] for i in range(n))
        out.append(quad)
    return out
