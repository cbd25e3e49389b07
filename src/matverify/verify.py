"""Deciding whether a claimed product is correct: an exact all-ones sum
that refutes most wrong products at once, the deterministic all-zeroes
test on AB - C taken straight from A, B and C, its integer-level lift
through a CRT basis, randomized baselines, and a deliberately flawed
bilinear probe kept as a negative control.

Fingerprint values come from two evaluators. For count points and a
block of side h over K inner indices, Vandermonde GEMMs (_gemm_values:
Freivalds' check with rows of powers of the points in place of random
vectors) cost about count*h*K multiply-adds in float64 BLAS, exact by the
argument in _matmul_mod; they serve arbitrary points, and progressions of
up to K_GEMM * bit_length(h) points. Longer progressions take the chirp
transform of poly.ProgressionPlan, O(K h log h) at any count. Under that
bound the GEMM work stays O(K h log h) too, so verify_product keeps its
O~(n^2) cost at every t, and t = n stays on the chirp for every n >= 128
(12 * bit_length(n) < n there).

Measured on one core (OpenBLAS, numpy 2.4, least of 7 calls, 3 at n =
1024, over three runs, after 6 MiB was allocated and freed as in README
"Timing"), the fingerprint of AB - C for entries in [-9, 9] at t points,
GEMM / chirp in ms:

    n = 128:  t = 16: 0.22 / 0.58    t = 128: 0.56 / 0.80
    n = 384:  t = 48: 1.5 / 4.8      t = 384: 7.3 / 7.8
    n = 512:  t = 64: 3.0 / 8.7      t = 512: 19.2 / 15.2
    n = 1024: t = 128: 19 / 98       t = 1024: 136 / 186

so the crossover lies near t = n (n = 384, 512) or past it (n = 128,
1024), and the cost bound, not the crossover, sets K_GEMM. The chirp runs
in one limb at t = n up to n = 512 (poly._limb_plan). On the correction
engine's blocks (side 2 to 128, counts of 1 to 128) the GEMM ran 1.5-6x
faster than the chirp at every count tried up to 256.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import log2

import numpy as np

from .errors import ResourceLimitError, UsageError
from .field import CrtBasis, FieldCtx, build_crt_basis, power_sequence, reduce_in_place
from .matrix import _I64_SAFE, IntMatrix, augment, exact_dot, field_form, square_matrices
from . import poly as _poly
from .poly import fold, progression_plan, residues
from .poly import progression_eval  # noqa: F401  perfbench's tracer patches it here

_F64_EXACT = 1 << 53
_LIMB_BITS = 16          # limb width of the GEMMs when one GEMM would round
_GEMM_CELLS = 1 << 18    # cells per GEMM buffer, 2 MiB in float64: bounds the workspace
# GEMM up to K_GEMM * bit_length(side) points, chirp past. All-chirp (0),
# 12 and 15 (the largest value that keeps t = n = 128 on the chirp) took
# 7.3 s, 3.94 s and 3.85 s on 112 correction instances, one core
K_GEMM = 12


@dataclass(frozen=True)
class FingerprintRep:
    """Factorized form of a block's fingerprint of LR - C.

    For factors L (rows x K) and R (K x cols) restricted to a side x side
    block at (i0, j0), and C's block c there (None reads as zero), the
    fingerprint is the univariate polynomial

        sum over block entries of (LR - C)_{i,j} * X^((i-i0) + side*(j-j0)),

    whose nonzero monomials biject with the block's nonzero entries
    ((i-i0) + side*(j-j0) is injective on the block). It is never expanded:
    left_polys[k] holds column k of L over the block rows, right_polys[k]
    holds row k of R over the block columns, and the value at x is sum_k
    left_k(x) * right_k(x^side) - sum_j c_j(x) * x^(side*j), c_j column j
    of c. Every factor is in matrix.field_form, int64 within bound < p.
    """

    ctx: FieldCtx
    side: int
    left_polys: np.ndarray   # (K, side)
    right_polys: np.ndarray  # (K, side)
    c: np.ndarray | None     # (side, side)
    bound: int


def fingerprint_rep(left: np.ndarray, right: np.ndarray, ctx: FieldCtx) -> FingerprintRep:
    """The rep of the whole product left @ right, which must be square and
    nonempty; a block's rep is that of the factors' slices. The factors go
    through matrix.field_form: int64 ones below p pass through as views."""
    left = left.data if isinstance(left, IntMatrix) else np.asarray(left)
    right = right.data if isinstance(right, IntMatrix) else np.asarray(right)
    if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[0]:
        raise UsageError("factors must be 2-d with matching inner dimension")
    side = left.shape[0]
    if side < 1 or right.shape[1] != side:
        raise UsageError("product of the pair must be square and nonempty")
    (lp, lb), (rp, rb) = field_form(left.T, ctx.p), field_form(right, ctx.p)
    return FingerprintRep(ctx, side, lp, rp, None, max(lb, rb))


def _matmul_mod(x: np.ndarray, y: np.ndarray, p: int, bound=None) -> np.ndarray:
    """x @ y mod p (numpy matmul, stacks included), exactly, by float64
    BLAS, for int64 residues x in [0, p) and int64 y of magnitude at most
    bound, which lies below p (residues too when bound is None).

    With inner dimension m, every partial sum of one output entry, in
    whatever order BLAS adds (and whether or not it fuses multiply-adds), is
    a sum of some of the m products and so an integer of magnitude at most
    m*(p-1)*bound. While that is below 2^53 every such integer is a float64,
    no step rounds, and one GEMM is exact. Otherwise (at p = 2^31 - 1
    already for m = 1) both operands split into 16-bit limbs, x = xh*2^16 +
    xl with 0 <= xl < 2^16 and |xh| <= 2^15 since |x| < 2^31 (the shift
    keeps the sign), and the four limb GEMMs have partial sums below m *
    2^32, exact while m < 2^21. Each limb product is reduced into [0, p)
    before it is scaled, so the int64 combination
    hh*(2^32 mod p) + (hl + lh)*2^16 + ll stays below 2^62 + 2^48 + 2^31.
    """
    inner = x.shape[-1]
    if inner * (p - 1) * (p - 1 if bound is None else bound) < _F64_EXACT:
        prod = x.astype(np.float64) @ y.astype(np.float64)
        return reduce_in_place(prod.astype(np.int64), p)
    if inner >= 1 << (53 - 2 * _LIMB_BITS):
        raise ResourceLimitError(f"inner dimension {inner} too long for exact limb GEMMs")
    mask = (1 << _LIMB_BITS) - 1
    xl, xh = (x & mask).astype(np.float64), (x >> _LIMB_BITS).astype(np.float64)
    yl, yh = (y & mask).astype(np.float64), (y >> _LIMB_BITS).astype(np.float64)

    def limb(u, v):
        return reduce_in_place((u @ v).astype(np.int64), p)

    out = limb(xh, yh) * ((1 << 2 * _LIMB_BITS) % p)
    out += (limb(xh, yl) + limb(xl, yh)) << _LIMB_BITS
    out += limb(xl, yl)
    return reduce_in_place(out, p)


def _live(rep: FingerprintRep, grid: int):
    """Where rep's terms are nonzero on its grid x grid sub-blocks of side
    h: left[k, a] (column k of L over the rows of grid row a), right[k, b]
    (row k of R over the columns of grid column b), and cols[a, j] (column
    j of C over the rows of grid row a; None without C)."""
    h = rep.side // grid
    left = rep.left_polys.reshape(-1, grid, h).any(axis=2)
    right = rep.right_polys.reshape(-1, grid, h).any(axis=2)
    cols = None if rep.c is None else rep.c.reshape(grid, h, -1).any(axis=1)
    return left, right, cols


def _live_pairs(left: np.ndarray, right: np.ndarray, cols) -> int:
    """Live (term, sub-block) pairs of the masks of _live, as many as
    (A | C), (B ; -I) has: inner index k feeds sub-block (a, b) when both
    its halves are nonzero there, column j of C the one in its column whose
    rows it is nonzero over."""
    live = (left[:, :, None] & right[:, None, :]).sum()
    return int(live + (0 if cols is None else cols.sum()))


def _gemm_values(rep: FingerprintRep, xs: np.ndarray, grid: int) -> np.ndarray:
    """Fingerprint values of rep's grid x grid sub-blocks at the points xs,
    by Vandermonde GEMMs: shape (grid, grid, len(xs)).

    Wq[u, i] = x_u^i and Wr[u, j] = (x_u^h)^j, filled by doubling, give
    Q = Wq @ left and R = Wr @ right, the values q_k(x_u) and r_k(x_u^h) of
    every row half, and value[a, b, u] = sum_k Q[u, a, k] * R[u, b, k].
    Column b*h + e of C takes Q = Wq @ C on each row half, and its value
    -Q[u, a] * Wr[u, e] goes to sub-block (a, b) alone. Points, inner
    indices and columns go in chunks that keep every buffer (points x h,
    inner indices x grid*h, points x grid x inner indices) within
    _GEMM_CELLS cells, so the workspace is sized before it is allocated.
    """
    p, h, bound = rep.ctx.p, rep.side // grid, rep.bound
    c = None if rep.c is None else rep.c.reshape(grid, h, grid, h)
    out = np.zeros((grid, grid, len(xs)), dtype=np.int64)
    pc = max(1, _GEMM_CELLS // h)
    kc = max(1, _GEMM_CELLS // (grid * max(h, min(pc, len(xs)))))
    for u0 in range(0, len(xs), pc):
        x = xs[u0 : u0 + pc]
        wq = power_sequence(x, h, p)
        wr = power_sequence(reduce_in_place(wq[:, -1] * x, p), h, p)
        for k0 in range(0, len(rep.left_polys), kc):
            # rows of the reshaped halves are (k, a) and (k, b), k-major
            q = _matmul_mod(wq, rep.left_polys[k0 : k0 + kc].reshape(-1, h).T, p, bound)
            r = _matmul_mod(wr, rep.right_polys[k0 : k0 + kc].reshape(-1, h).T, p, bound)
            q = q.reshape(len(x), -1, grid).transpose(0, 2, 1)
            vals = _matmul_mod(q, r.reshape(len(x), -1, grid), p)
            out[:, :, u0 : u0 + pc] += vals.transpose(1, 2, 0)
        for b in range(0 if c is None else grid):
            for e0 in range(0, h, kc):
                q = _matmul_mod(wq, c[:, :, b, e0 : e0 + kc], p, bound)
                q *= wr[:, e0 : e0 + kc]
                out[:, b, u0 : u0 + pc] -= reduce_in_place(q, p).sum(axis=2)
    return reduce_in_place(out, p)


def eval_fingerprint(rep: FingerprintRep, points) -> list[int]:
    """Fingerprint values at arbitrary points, by the Vandermonde GEMMs."""
    p = rep.ctx.p
    pts = np.array([int(x) % p for x in points], dtype=np.int64)
    return _gemm_values(rep, pts, 1)[0, 0].tolist()


def kernel_path(stats: dict) -> str:
    """Which evaluator computed the fingerprint values counted in stats:
    gemm, chirp, mixed, or none when no value was computed."""
    gemm, chirp = stats.get("gemm_points", 0), stats.get("chirp_points", 0)
    return ("mixed" if chirp else "gemm") if gemm else ("chirp" if chirp else "none")


def _c_plan(h: int, first: int, omega: int, count: int, p: int):
    """Plan, with lead powers, and g of C's term (see _c_values) for
    sub-blocks of side h at x_u = first * omega^u, u < count."""
    g = _c_rows(h, count, p, _poly._SEGMENT, _poly._FFT_LIMIT)
    return progression_plan(g * h, first, omega, count, p, lead=True), g


@lru_cache(maxsize=64)
def _c_rows(h: int, count: int, p: int, segment: int, fft_limit: int) -> int:
    """g of C's term: the power of two dividing h with the least FFT work,
    (h/g) * segments * L * log2(L), among those whose limb plan takes no
    more limbs than the A/B plans' (so stats["limbs"] stays theirs).
    segment and fft_limit (poly's _SEGMENT and _FFT_LIMIT) only key the
    entry."""
    limbs = _poly._limb_plan(p, _poly._segment(h, count)[1], h)[0]
    best, g = None, 1
    while h % g == 0:
        try:
            seg, length = _poly._segment(g * h, count)
        except ResourceLimitError:
            break
        if _poly._limb_plan(p, length, g * h)[0] > limbs:
            break
        work = (h // g) * -(-count // seg) * length * log2(length)
        if best is None or work < best[0]:
            best = (work, g)
        g *= 2
    return best[1]


def _c_values(c: np.ndarray, cols: np.ndarray, grid: int, first: int, count: int,
              ctx: FieldCtx) -> np.ndarray:
    """C's term of each sub-block (a, b) of side h = side // grid at x_u =
    first * omega^u, shape (grid, grid, count), in the arithmetic of its
    plan (poly.fold), reduced: C's block read column-major is one
    polynomial of h^2 coefficients, which runs on one plan as h/g rows of
    g*h, row J (columns g*J..g*J+g-1) weighted by (x_u^h)^(gJ). cols is
    _live's mask of C's columns. The blocks of at most plan.budget rows are
    summed by Horner's scheme in x_u^(gh), from the top block down, on the
    plan's lead powers; the sum is folded after every product and every
    block, so each partial sum is a folded one plus at most plan.budget
    products of a raw output and a lead power, and is post-scaled once."""
    p, h = ctx.p, len(c) // grid
    plan, g = _c_plan(h, first, ctx.omega, count, p)
    blocks = c.reshape(grid, h, grid, h // g, g)   # [a, i, b, J, e]
    live = cols.reshape(grid, grid, h // g, g).any(axis=3).transpose(2, 0, 1)  # [J, a, b]
    step = max(1, min(plan.block_rows // (grid * grid), plan.budget))
    pw = plan.lead   # pw[k, u] = (x_u^(gh))^k
    out = np.zeros((grid, grid, count), dtype=pw.dtype)
    for j0 in reversed(range(0, h // g, step)):
        # rows (J, a, b), coefficient e*h + i; by Horner, the sum of the
        # rows above moves up by step rows
        rows = blocks[:, :, :, j0 : j0 + step].transpose(3, 0, 2, 4, 1).reshape(-1, g * h)
        z = plan.raw(rows, live[j0 : j0 + step].ravel()).reshape(-1, grid, grid, count)
        out *= pw[step]
        fold(out, p)
        out += np.einsum("jabu,ju->abu", z, pw[: len(z)])
        fold(out, p)
    out *= plan.post
    return fold(out, p)


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

    Up to K_GEMM * bit_length(h) points the Vandermonde GEMMs of
    _gemm_values run; past that the chirp does, on the plans of
    poly.progression_plan (cached up to a transform length), one per side.
    The raw kernel outputs of each block of terms are multiplied and added
    to one sum in the plans' arithmetic (float64 balanced residues, or
    int64 for the moduli where poly.f64_rows is 0), which is folded after
    every block of at most plan.budget terms, so no partial sum leaves the
    range where poly.fold is exact; both post-scales are applied once to
    the total, which becomes int64 residues in [0, p) once. C's term of
    each sub-block is one polynomial of h^2 coefficients, C's block read
    column-major, and _c_values evaluates it on its own plan in rows of
    g*h coefficients; it is subtracted at the end.
    stats["evaluations"] counts count times the _live_pairs;
    stats["gemm_points"] and stats["chirp_points"] count the values each
    path computed, count per sub-block, and stats["limbs"] keeps the most
    limbs a chirp plan split its transforms into.
    """
    ctx = rep.ctx
    p = ctx.p
    if count < 0:
        raise UsageError("count must be >= 0")
    if grid < 1 or rep.side % grid:
        raise UsageError("grid must divide the block side")
    side = rep.side // grid
    acc = np.zeros((grid, grid, count), dtype=np.int64)
    left, right, cols = _live(rep, grid)
    pairs = _live_pairs(left, right, cols)
    path = None
    if count and pairs:
        path = "gemm" if count <= K_GEMM * side.bit_length() else "chirp"
    if path == "gemm":
        xs = power_sequence(ctx.omega, count, p) * pow(ctx.omega, start_exp, p)
        reduce_in_place(xs, p)
        acc = _gemm_values(rep, xs, grid)
    elif path == "chirp":
        first = pow(ctx.omega, start_exp, p)
        ratio_r = pow(ctx.omega, side, p)
        plan_q = progression_plan(side, first, ctx.omega, count, p)
        plan_r = progression_plan(side, pow(first, side, p), ratio_r, count, p)
        # both plans share p, so one arithmetic and one budget
        step = max(1, min(plan_q.block_rows // grid, plan_q.budget))
        acc = np.zeros((grid, grid, count), dtype=plan_q.post.dtype)
        for k0 in range(0, len(rep.left_polys), step):
            ks = slice(k0, k0 + step)
            zq = plan_q.raw(rep.left_polys[ks].reshape(-1, side), left[ks].ravel())
            zr = plan_r.raw(rep.right_polys[ks].reshape(-1, side), right[ks].ravel())
            acc += np.einsum("kau,kbu->abu", zq.reshape(-1, grid, count),
                             zr.reshape(-1, grid, count))
            fold(acc, p)
        acc *= plan_r.post
        fold(acc, p)
        acc *= plan_q.post
        if rep.c is not None:   # at most (p//2) * (p - 1) + p//2, or p^2 in int64
            acc -= _c_values(rep.c, cols, grid, first, count, ctx)
        acc = residues(acc, p)
        if stats is not None:   # both sides share one limb plan
            stats["limbs"] = max(stats.get("limbs", 0), plan_q.plan[0])
    if stats is not None:
        stats["evaluations"] = stats.get("evaluations", 0) + count * pairs
        if path is not None:
            key = f"{path}_points"
            stats[key] = stats.get(key, 0) + count * grid * grid
    return acc[0, 0] if grid == 1 else acc


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of the all-zeroes test: sound NONZERO witness, or ZERO
    (correct whenever the true nonzero count is within the budget)."""

    all_zero: bool
    witness: int | None   # least exponent nu with a nonzero value
    checked: int          # points actually evaluated (after clamping)
    # the checked values themselves, at omega^0..omega^(checked-1)
    values: np.ndarray = field(repr=False, compare=False)


def all_zeroes_test(
    left, right, t: int, ctx: FieldCtx, stats: dict | None = None
) -> ZeroVerdict:
    """Decide whether left @ right (or the product of a FingerprintRep
    passed as left, whose field must be ctx) is zero by evaluating the
    fingerprint at omega^0..omega^(t-1). NONZERO answers are
    unconditionally sound; ZERO is correct whenever the product has at
    most t nonzero entries."""
    if t < 1:
        raise UsageError("t must be >= 1")
    rep = left if isinstance(left, FingerprintRep) else fingerprint_rep(left, right, ctx)
    if rep.ctx != ctx:
        raise UsageError("the rep's field differs from ctx")
    side = rep.side
    if rep.ctx.order_lb < side * side:
        raise UsageError("omega order bound below side^2")
    t_eff = min(t, side * side)
    vals = eval_fingerprint_progression(rep, 0, t_eff, stats)
    nz = np.nonzero(vals)[0]
    witness = int(nz[0]) if nz.size else None
    return ZeroVerdict(not nz.size, witness, t_eff, vals)


def _ones_probe(a: IntMatrix, b: IntMatrix, c: IntMatrix) -> int:
    """1^T (AB - C) 1 = colsum(A) . rowsum(B) - sum(C), exactly over the
    integers: the sum of all entries of AB - C, which is the fingerprint at
    omega^0 before any reduction. Sums and product run in int64 while their
    partial sums stay below 2^62, in Python ints otherwise."""
    n = a.rows

    def total(m: IntMatrix, axis=None):
        wide = m.max_abs * (n if axis is not None else n * n) >= _I64_SAFE
        return (m.data.astype(object) if wide else m.data).sum(axis=axis)

    ab = exact_dot(total(a, 0), total(b, 1), n * a.max_abs, n * b.max_abs)
    return int(ab) - int(total(c))


def verify_product(
    a, b, c, t: int, stats: dict | None = None, *,
    known: dict[int, np.ndarray] | None = None, basis: CrtBasis | None = None,
) -> bool:
    """True iff C = AB, guaranteed whenever they differ in at most t entries.
    False answers are always correct.

    A nonzero sum of all entries of AB - C (_ones_probe) refutes C at once,
    once per call; it is counted in stats["probe_exits"]. Otherwise the
    all-zeroes test on AB - C, taken from A, B and C themselves, must pass
    mod every prime of a CRT basis: basis, or one built to cover the
    augmented magnitude bound (cached; its size goes to stats["primes"]).

    known maps primes to the fingerprint values of AB - C mod that prime
    at omega^0, omega^1, ..., omega the basis generator of that prime. Mod
    a basis prime in known the zero test reads the first min(t, n^2) of
    them instead of evaluating; other primes are ignored. Every array must
    hold that many values, or UsageError is raised; the values of each
    prime the zero test evaluates are added to known.
    """
    a, b, c, n = square_matrices(a, b, c)
    if t < 1:
        raise UsageError("t must be >= 1")
    t_eff = min(t, n * n)
    known = {} if known is None else known
    if any(len(vals) < t_eff for vals in known.values()):
        raise UsageError(f"known fingerprint values must cover {t_eff} points")
    if _ones_probe(a, b, c):
        if stats is not None:
            stats["probe_exits"] = stats.get("probe_exits", 0) + 1
        return False
    pair = augment(a, b, c)
    if basis is None:
        basis = build_crt_basis(n, pair.magnitude_bound())
    if stats is not None:
        stats["primes"] = len(basis.fields)
    for ctx in basis.fields:
        if ctx.p not in known:
            ap, bp, cp, bound = pair.reduced(ctx)
            rep = FingerprintRep(ctx, n, ap.T, bp, cp, bound)
            known[ctx.p] = all_zeroes_test(rep, None, t, ctx, stats).values
        if np.any(known[ctx.p][:t_eff]):
            return False
    return True


def seeded_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so runs are reproducible from the seed."""
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
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
