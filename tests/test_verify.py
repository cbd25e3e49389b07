import tracemalloc

import numpy as np
import pytest

from matverify import (
    FieldCtx,
    FingerprintRep,
    IntMatrix,
    ResourceLimitError,
    UsageError,
    all_zeroes_test,
    augment,
    build_crt_basis,
    eval_fingerprint,
    eval_fingerprint_progression,
    fingerprint_rep,
    flawed_bilinear_test,
    freivalds_verify,
    naive_multiply,
    sampling_verify,
    seeded_rng,
    verify_product,
)

from matverify import poly
import matverify.verify as verify_mod

from helpers import fingerprint_coeffs, oracle_eval, plant_errors, skew_pair

F17 = FieldCtx(17, 3, order_lb=16)


def _pair_rep(pair, ctx):
    """The rep of AB - C, straight from the pair's A, B and C, as
    verify_product builds it."""
    ap, bp, cp, bound = pair.reduced(ctx)
    return FingerprintRep(ctx, pair.side, ap.T, bp, cp, bound)


def test_fingerprint_identity_golden():
    rep = fingerprint_rep(np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64), F17)
    # product fingerprint of I2 is 1 + X^3
    assert eval_fingerprint(rep, [1, 2]) == [2, 9]


def test_fingerprint_matches_coefficient_expansion():
    rng = seeded_rng(21)
    for n in (1, 2, 4, 7):
        left = rng.integers(0, 17, (n, n))
        right = rng.integers(0, 17, (n, n))
        rep = fingerprint_rep(left, right, F17)
        coeffs = fingerprint_coeffs(left.tolist(), right.tolist(), 17)
        pts = [int(x) for x in rng.integers(0, 17, 6)]
        want = [oracle_eval(coeffs, x, 17) for x in pts]
        assert eval_fingerprint(rep, pts) == want


@pytest.mark.parametrize("kind", ["p-1", "p", "p+1", "2^40-1", "object", "int32"])
@pytest.mark.parametrize("path", ["gemm", "chirp"])
def test_fingerprint_rep_at_the_edges_of_field_form(monkeypatch, path, kind):
    # a factor below p in magnitude is taken as it is, with its largest
    # |entry| as the bound; any other is reduced into [0, p) with bound
    # p - 1. Either way the values are the coefficient expansion's
    monkeypatch.setattr(verify_mod, "K_GEMM", 1 << 20 if path == "gemm" else 0)
    rng = seeded_rng(27)
    ctx = build_crt_basis(6, 1).fields[0]
    p = ctx.p
    mag = {"p-1": p - 1, "p": p, "p+1": p + 1, "2^40-1": (1 << 40) - 1, "object": 1 << 70,
           "int32": p - 1}[kind]
    left = rng.integers(-3, 4, (6, 5)).astype(object)
    right = rng.integers(-3, 4, (5, 6)).astype(object)
    left[0, :2], left[3, 4], right[2, 1] = (mag, -mag), -mag, mag
    dtype = {"object": object, "int32": np.int32}.get(kind, np.int64)
    left, right = left.astype(dtype), right.astype(dtype)
    rep = fingerprint_rep(left, right, ctx)
    as_is = dtype == np.int64 and mag < p
    assert rep.bound == (mag if as_is else p - 1)
    assert rep.c is None and rep.left_polys.dtype == rep.right_polys.dtype == np.int64
    if as_is:
        assert rep.left_polys.base is left and rep.right_polys is right
    else:
        assert rep.left_polys.min() >= 0 and rep.left_polys.max() < p
    coeffs = fingerprint_coeffs(left.tolist(), right.tolist(), p)
    pts = [pow(ctx.omega, 2 + u, p) for u in range(30)]
    want = [oracle_eval(coeffs, x, p) for x in pts]
    assert eval_fingerprint_progression(rep, 2, 30).tolist() == want
    assert eval_fingerprint(rep, pts) == want


@pytest.mark.parametrize("kind", ["p-1", "p", "p+1", "object"])
@pytest.mark.parametrize("path", ["gemm", "chirp"])
def test_verify_product_against_the_materialized_residues(monkeypatch, path, kind):
    # C at p - 1, p, p + 1 of the first prime, or past 2^62 as objects,
    # with a second entry that cancels the all-ones sum: the values of
    # every prime the zero test evaluates are those of the materialized
    # (A | C), (B ; -I), reduced into [0, p) entry by entry
    monkeypatch.setattr(verify_mod, "K_GEMM", 1 << 20 if path == "gemm" else 0)
    rng = seeded_rng(28)
    n, t = 12, 20
    a = rng.integers(-2, 3, (n, n))
    b = rng.integers(-2, 3, (n, n))
    truth = naive_multiply(a, b).data
    p1 = build_crt_basis(n, 1).fields[0].p
    assert np.abs(truth).max() < p1
    v = {"p-1": p1 - 1, "p": p1, "p+1": p1 + 1, "object": 1 << 70}[kind]
    c = truth.astype(object)
    c[1, 2], c[7, 9] = v, c[7, 9] - (v - c[1, 2])
    if kind != "object":
        c = c.astype(np.int64)
    known = {}
    assert not verify_product(a, b, c, t, known=known)
    assert known
    left, right = augment(a, b, c).materialize()
    for q, vals in known.items():
        ctx = next(f for f in build_crt_basis(n, augment(a, b, c).magnitude_bound())
                   .fields if f.p == q)
        lp = np.array((left.T % q).tolist(), dtype=np.int64)
        rp = np.array((right % q).tolist(), dtype=np.int64)
        rep = FingerprintRep(ctx, n, lp, rp, None, q - 1)
        assert np.array_equal(vals, eval_fingerprint_progression(rep, 0, t)), q


def test_fingerprint_progression_matches_pointwise(monkeypatch):
    # the chirp against the GEMM evaluator at arbitrary points
    monkeypatch.setattr(verify_mod, "K_GEMM", 0)
    rng = seeded_rng(22)
    basis = build_crt_basis(8, 10**6)
    ctx = basis.fields[0]
    left = rng.integers(0, ctx.p, (8, 8))
    right = rng.integers(0, ctx.p, (8, 8))
    rep = fingerprint_rep(left, right, ctx)
    vals = eval_fingerprint_progression(rep, 3, 10)
    pts = [pow(ctx.omega, 3 + k, ctx.p) for k in range(10)]
    assert [int(v) for v in vals] == eval_fingerprint(rep, pts)


@pytest.mark.parametrize("segment, chunk_points", [(None, None), (64, 640)])
def test_fingerprint_progression_in_row_blocks(monkeypatch, segment, chunk_points):
    # the augmented pair's right factor mixes dense rows (B) with monomial
    # rows (-I); 41 dense plus 32 monomial rows active in the block leave a
    # partial last block of rows
    if segment is not None:
        monkeypatch.setattr(poly, "_SEGMENT", segment)
        monkeypatch.setattr(poly, "_CHUNK_POINTS", chunk_points)
    rng = seeded_rng(24)
    n, side, count = 41, 32, 1000
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = rng.integers(-999, 1000, (n, n))
    left, right = augment(a, b, c).materialize()
    ctx = build_crt_basis(n, 10**6).fields[0]
    rep = fingerprint_rep(left[4 : 4 + side], right[:, 8 : 8 + side], ctx)
    active = np.count_nonzero(rep.left_polys.any(1) & rep.right_polys.any(1))
    step = poly.ProgressionPlan(side, 1, ctx.omega, count, ctx.p).block_rows
    assert active == n + side and active % step and active > step
    vals = eval_fingerprint_progression(rep, 5, count)
    pts = [pow(ctx.omega, 5 + k, ctx.p) for k in range(count)]
    assert [int(v) for v in vals] == eval_fingerprint(rep, pts)


def test_fingerprint_progression_grid_matches_sub_blocks():
    # a 2 x 2 grid evaluates the four sub-blocks of a side-32 block of the
    # augmented pair; -I rows reach only one column half of it
    rng = seeded_rng(25)
    n, side, count = 41, 32, 300
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = rng.integers(-999, 1000, (n, n))
    left, right = augment(a, b, c).materialize()
    ctx = build_crt_basis(n, 10**6).fields[0]
    rep = fingerprint_rep(left[4 : 4 + side], right[:, 8 : 8 + side], ctx)
    stats = {}
    vals = eval_fingerprint_progression(rep, 7, count, stats, grid=2)
    assert vals.shape == (2, 2, count)
    h = side // 2
    pts = [pow(ctx.omega, 7 + k, ctx.p) for k in range(count)]
    sub_stats = {}
    for ai in range(2):
        for bi in range(2):
            i0, j0 = 4 + ai * h, 8 + bi * h
            sub = fingerprint_rep(left[i0 : i0 + h], right[:, j0 : j0 + h], ctx)
            assert [int(v) for v in vals[ai, bi]] == eval_fingerprint(sub, pts)
            one = eval_fingerprint_progression(sub, 7, count, sub_stats)
            assert np.array_equal(one, vals[ai, bi])
    assert stats["evaluations"] == sub_stats["evaluations"]
    whole = eval_fingerprint_progression(rep, 7, count, grid=1)
    assert [int(v) for v in whole] == eval_fingerprint(rep, pts)
    assert eval_fingerprint_progression(rep, 7, 0, grid=2).shape == (2, 2, 0)
    for grid in (1, 2):
        with pytest.raises(UsageError):
            eval_fingerprint_progression(rep, 7, -1, grid=grid)
    with pytest.raises(UsageError):
        eval_fingerprint_progression(rep, 7, count, grid=3)


def _sub_block_oracle(rep, start, count, grid):
    """Each sub-block's fingerprint at omega^(start + u), by Horner."""
    h = rep.side // grid
    pts = [pow(rep.ctx.omega, start + u, rep.ctx.p) for u in range(count)]
    out = np.zeros((grid, grid, count), dtype=np.int64)
    for ai in range(grid):
        for bi in range(grid):
            sub = FingerprintRep(rep.ctx, h, rep.left_polys[:, ai * h : (ai + 1) * h],
                                 rep.right_polys[:, bi * h : (bi + 1) * h], None,
                                 rep.bound)
            out[ai, bi] = eval_fingerprint(sub, pts)
    return out


@pytest.mark.parametrize("grid", [1, 2])
def test_accumulation_reduces_before_int64_overflows(monkeypatch, grid):
    # at p = 2^31 - 1 two products near (p - 1)^2 fill an int64, so the chirp
    # takes blocks of at most two products, in the sum over 24 live inner
    # indices and in C's column loop after it, and reduces after each
    monkeypatch.setattr(verify_mod, "K_GEMM", 0)
    p = (1 << 31) - 1
    ctx = FieldCtx(p, 7, order_lb=p - 1)
    rng = seeded_rng(26)
    side, k, count = 8, 24, 40
    left = p - 1 - rng.integers(0, 3, (k, side))
    right = p - 1 - rng.integers(0, 3, (k, side))
    left[::5, : side // 2] = 0          # some halves die: fewer live pairs
    rep = FingerprintRep(ctx, side, left, right, None, p - 1)
    vals = eval_fingerprint_progression(rep, 3, count, grid=grid)
    assert np.array_equal(vals.reshape(grid, grid, count),
                          _sub_block_oracle(rep, 3, count, grid))
    # a C block near p - 1 with zero columns, against the expanded
    # fingerprint of the materialized (A | C), (B ; -I)
    c = p - 1 - rng.integers(0, 3, (side, side))
    c[:, 1::3] = 0
    rep = FingerprintRep(ctx, side, left, right, c, p - 1)
    vals = eval_fingerprint_progression(rep, 3, count, grid=grid)
    wide, tall = augment(left.T, right, c).materialize()
    points = [pow(ctx.omega, 3 + u, p) for u in range(count)]
    assert np.array_equal(vals.reshape(grid, grid, count),
                          _expanded_oracle(wide, tall, ctx, grid, points))


@pytest.mark.parametrize("grid, start", [(1, 0), (2, 5)])
def test_accumulation_at_the_verify_prime(grid, start):
    # n = t = 384 at the one CRT prime of the verify workload, against the
    # exact AB - C: value(x) = sum_ij D_ij x^i (x^h)^j per sub-block of side h
    rng = seeded_rng(27)
    n, count = 384, 384
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = rng.integers(-999, 1000, (n, n))
    pair = augment(a, b, c)
    (ctx,) = build_crt_basis(n, pair.magnitude_bound()).fields
    p, h = ctx.p, n // grid
    rep = _pair_rep(pair, ctx)
    vals = eval_fingerprint_progression(rep, start, count, grid=grid)
    d = (naive_multiply(a, b).data - c) % p
    xs = [pow(ctx.omega, start + u, p) for u in range(count)]
    xp = np.array([[pow(x, i, p) for x in xs] for i in range(h)], dtype=np.int64)
    xh = np.array([[pow(x, h * j, p) for x in xs] for j in range(h)], dtype=np.int64)
    for ai in range(grid):
        for bi in range(grid):
            blk = d[ai * h : (ai + 1) * h, bi * h : (bi + 1) * h]
            want = (blk @ xh % p * xp).sum(axis=0) % p
            assert np.array_equal(vals.reshape(grid, grid, count)[ai, bi], want)


_CAP = (1 << 40) - 1


def _direct_form_case(kind, rng, n):
    """A, B and C for the direct-form tests: entries of +-9 with C off AB,
    C zero, C with one nonzero column, entries at +-(2^40 - 1), or an
    object-dtype C with entries above 2^62."""
    a, b = rng.integers(-9, 10, (n, n)), rng.integers(-9, 10, (n, n))
    if kind == "cap":
        a, b = (_CAP * rng.choice((-1, 0, 1), (n, n)) for _ in range(2))
    c = naive_multiply(a, b).data
    if kind == "dense":
        c = c + rng.integers(-999, 1000, (n, n))
    elif kind in ("zero_c", "one_column"):
        c = np.zeros((n, n), dtype=np.int64)
        if kind == "one_column":
            c[:, 19] = rng.integers(1, 10, n)
    else:
        c = c.astype(object)
        c[3, 5] += 1 << 70
        c[10, 18] -= 7
    return a, b, c


@pytest.mark.parametrize("kind", ["dense", "zero_c", "one_column", "cap", "object_c"])
@pytest.mark.parametrize("grid", [1, 2])
@pytest.mark.parametrize("path", ["gemm", "chirp"])
def test_direct_form_matches_the_materialized_pair(monkeypatch, path, grid, kind):
    # the side-8 block at (8, 16) of AB - C, evaluated straight from A, B and
    # C, against the same block of the materialized (A | C), (B ; -I) on the
    # same path, and against the full coefficient expansion: same values
    # and the same count of evaluations
    monkeypatch.setattr(verify_mod, "K_GEMM", 1 << 20 if path == "gemm" else 0)
    rng = seeded_rng(31)
    n, side, count, start = 24, 8, 20, 3
    a, b, c = _direct_form_case(kind, rng, n)
    pair = augment(IntMatrix(a), IntMatrix(b), IntMatrix(c))
    ctx = build_crt_basis(n, pair.magnitude_bound()).fields[0]
    ap, bp, cp, bound = pair.reduced(ctx)
    if kind in ("cap", "object_c"):
        assert bound == ctx.p - 1 and cp.dtype == np.int64
    rows, cols = slice(8, 8 + side), slice(16, 16 + side)
    direct = FingerprintRep(ctx, side, ap[rows].T, bp[:, cols], cp[rows, cols], bound)
    left, right = pair.materialize()
    old = fingerprint_rep(left[rows], right[:, cols], ctx)
    got, want = {}, {}
    vals = eval_fingerprint_progression(direct, start, count, got, grid=grid)
    assert np.array_equal(vals, eval_fingerprint_progression(old, start, count, want, grid=grid))
    assert got == want and got[f"{path}_points"] == count * grid * grid
    pts = [pow(ctx.omega, start + u, ctx.p) for u in range(count)]
    if grid == 1:
        coeffs = fingerprint_coeffs(left[rows].tolist(), right[:, cols].tolist(), ctx.p)
        assert vals.tolist() == [oracle_eval(coeffs, x, ctx.p) for x in pts]
        assert eval_fingerprint(direct, pts) == vals.tolist()
    if kind == "zero_c":
        assert got["evaluations"] == count * _live_count(ap[rows].T, bp[:, cols], grid)
    elif kind == "one_column":
        # the nonzero column counts once, where its -I inner index did
        live = _live_count(ap[rows].T, bp[:, cols], grid)
        assert got["evaluations"] == count * (live + grid)


def _live_count(left, right, grid):
    """Live (inner index, sub-block) pairs of a plain product's block."""
    h = left.shape[1] // grid
    lq = left.reshape(-1, grid, h).any(axis=2).sum(axis=1)
    rr = right.reshape(-1, grid, h).any(axis=2).sum(axis=1)
    return int((lq * rr).sum())


def test_matmul_mod_takes_one_gemm_on_a_small_signed_factor(monkeypatch):
    # at p = 2^31 - 1 residues need the limb split, but a factor of
    # entries in [-9, 9] keeps 64 * (p - 1) * 9 below 2^53: one exact GEMM,
    # which still runs when limbs that wide refuse the inner dimension
    p = (1 << 31) - 1
    rng = seeded_rng(32)
    x = rng.integers(0, p, (5, 64))
    y = rng.integers(-9, 10, (64, 7))
    want = ((x.astype(object) @ y.astype(object)) % p).tolist()
    assert verify_mod._matmul_mod(x, y % p, p).tolist() == want
    monkeypatch.setattr(verify_mod, "_LIMB_BITS", 26)
    with pytest.raises(ResourceLimitError):
        verify_mod._matmul_mod(x, y % p, p)
    assert verify_mod._matmul_mod(x, y, p, 9).tolist() == want


def _expanded_oracle(left, right, ctx, grid, points):
    """Each sub-block's fingerprint at the points, from the full coefficient
    expansion of its product (pure Python): shape (grid, grid, points)."""
    h = left.shape[0] // grid
    out = np.zeros((grid, grid, len(points)), dtype=np.int64)
    for ai in range(grid):
        for bi in range(grid):
            coeffs = fingerprint_coeffs(left[ai * h : (ai + 1) * h].tolist(),
                                        right[:, bi * h : (bi + 1) * h].tolist(), ctx.p)
            out[ai, bi] = [oracle_eval(coeffs, x, ctx.p) for x in points]
    return out


_P31 = (1 << 31) - 1
_CRT = build_crt_basis(16, 10**6).fields[0]


_GEMM_CASES = [
    (F17, 1, 3, "random", 1, 0),
    (F17, 1, 3, "random", 1, 4),
] + [
    (ctx, side, 12, fill, grid, start)
    for ctx, side, fill in ((F17, 8, "random"), (_CRT, 16, "random"), (_CRT, 16, "max"),
                            (FieldCtx(_P31, 7, order_lb=_P31 - 1), 16, "max"))
    for grid, start in ((1, 0), (1, 9), (2, 0), (2, 5))
]


@pytest.mark.parametrize("ctx, side, k, fill, grid, start", _GEMM_CASES)
def test_gemm_path_matches_the_expanded_fingerprint(ctx, side, k, fill, grid, start):
    # all-(p - 1) factors put every partial sum at its largest: at 2^31 - 1
    # one product alone passes 2^53, so both GEMMs run in 16-bit limbs
    rng = seeded_rng(28 + side)
    p = ctx.p
    if fill == "max":
        left = np.full((side, k), p - 1, dtype=np.int64)
        right = np.full((k, side), p - 1, dtype=np.int64)
    else:
        left = rng.integers(0, p, (side, k))
        right = rng.integers(0, p, (k, side))
    rep = fingerprint_rep(left, right, ctx)
    count = verify_mod.K_GEMM * (side // grid).bit_length()
    stats = {}
    vals = eval_fingerprint_progression(rep, start, count, stats, grid=grid)
    assert "chirp_points" not in stats and stats["gemm_points"] == count * grid * grid
    points = [pow(ctx.omega, start + u, p) for u in range(count)]
    want = _expanded_oracle(left, right, ctx, grid, points)
    assert np.array_equal(vals.reshape(grid, grid, count), want)
    empty = eval_fingerprint_progression(rep, start, 0, stats, grid=grid)
    assert empty.shape == ((0,) if grid == 1 else (grid, grid, 0))


@pytest.mark.parametrize("ctx", [F17, _CRT, FieldCtx(_P31, 7, order_lb=_P31 - 1)])
def test_arbitrary_points_match_the_expanded_fingerprint(monkeypatch, ctx):
    # points 0 and p - 1, repeats and unreduced ones; a tiny cell budget
    # splits both the points and the inner indices into chunks
    rng = seeded_rng(29)
    p = ctx.p
    left = rng.integers(0, p, (6, 9))
    right = rng.integers(0, p, (9, 6))
    left[:, 4] = 0                      # a dead inner index is skipped
    rep = fingerprint_rep(left, right, ctx)
    points = [0, p - 1, 1, 2, p - 1, p + 3, -1] + [int(x) for x in rng.integers(0, p, 5)]
    want = _expanded_oracle(left, right, ctx, 1, [x % p for x in points])[0, 0]
    assert eval_fingerprint(rep, points) == want.tolist()
    monkeypatch.setattr(verify_mod, "_GEMM_CELLS", 13)
    assert eval_fingerprint(rep, points) == want.tolist()
    assert eval_fingerprint(rep, []) == []
    zero = fingerprint_rep(np.zeros((3, 2), np.int64), np.ones((2, 3), np.int64), ctx)
    assert eval_fingerprint(zero, [0, 5]) == [0, 0]


def test_gemm_workspace_is_bounded():
    # 6000 arbitrary points on a side-256 block, and the longest GEMM
    # progression (180 points) on a side-16384 one: unchunked, their
    # Vandermonde matrices alone take 12 MiB and 23 MiB per buffer
    rng = seeded_rng(30)
    ctx = _CRT
    rep = FingerprintRep(ctx, 256, rng.integers(0, ctx.p, (8, 256)),
                         rng.integers(0, ctx.p, (8, 256)), None, ctx.p - 1)
    points = rng.integers(0, ctx.p, 6000)
    tracemalloc.start()
    try:
        vals = eval_fingerprint(rep, points)
        peak_points = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(vals) == 6000
    side = 1 << 14
    wide = FingerprintRep(ctx, side, rng.integers(0, ctx.p, (2, side)),
                          rng.integers(0, ctx.p, (2, side)), None, ctx.p - 1)
    count = verify_mod.K_GEMM * side.bit_length()
    tracemalloc.start()
    try:
        stats = {}
        prog = eval_fingerprint_progression(wide, 0, count, stats)
        peak_prog = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats["gemm_points"] == count and prog.shape == (count,)
    assert peak_points < 12 << 20, peak_points
    assert peak_prog < 12 << 20, peak_prog


def test_fingerprint_block_slicing():
    # a block's rep is that of the factors' slices; the rep of a product
    # that is not square, or empty, is a usage error, not a numpy failure
    # later
    rng = seeded_rng(23)
    left = rng.integers(0, 17, (8, 8))
    right = rng.integers(0, 17, (8, 8))
    rep = fingerprint_rep(left[4:8], right[:, 0:4], F17)
    coeffs = fingerprint_coeffs(left[4:8].tolist(), right[:, 0:4].tolist(), 17)
    pts = [1, 2, 5]
    assert eval_fingerprint(rep, pts) == [oracle_eval(coeffs, x, 17) for x in pts]
    for l, r in ((left[4:8], right), (left, right[:, :4]), (left[:0], right[:, :0])):
        with pytest.raises(UsageError):
            fingerprint_rep(l, r, F17)


def test_all_zeroes_identity_golden():
    eye = IntMatrix(np.eye(2, dtype=np.int64))
    v = all_zeroes_test(eye, eye, 1, F17)
    assert not v.all_zero and v.witness == 0 and v.checked == 1


def test_all_zeroes_skew_golden():
    d, eye = skew_pair()
    v = all_zeroes_test(IntMatrix(d), IntMatrix(eye), 2, F17)
    assert not v.all_zero and v.witness == 1


def test_all_zeroes_budget_clamp_and_validation():
    zero = IntMatrix(np.zeros((2, 2), dtype=np.int64))
    v = all_zeroes_test(zero, zero, 99, F17)
    assert v.all_zero and v.checked == 4
    with pytest.raises(UsageError):
        all_zeroes_test(zero, zero, 0, F17)
    with pytest.raises(UsageError):
        all_zeroes_test(zero, zero, 1, FieldCtx(17, 3, order_lb=2))
    # a one-dimensional right factor is refused before its shape is read
    with pytest.raises(UsageError):
        all_zeroes_test(np.ones((2, 2), np.int64), np.ones(2, np.int64), 1, F17)
    # a rep's own field decides: its order bound is checked, and a ctx
    # other than that field is refused instead of read past
    eye = np.eye(2, dtype=np.int64)
    with pytest.raises(UsageError):
        all_zeroes_test(fingerprint_rep(eye, eye, FieldCtx(17, 3, order_lb=2)), None, 1, F17)
    with pytest.raises(UsageError):
        all_zeroes_test(fingerprint_rep(eye, eye, F17), None, 1, FieldCtx(19, 2, order_lb=18))
    assert not all_zeroes_test(fingerprint_rep(eye, eye, F17), None, 1, F17).all_zero


def test_raw_factors_are_reduced_exactly():
    # raw arrays reach the field reduction past IntMatrix: a float used to
    # be truncated, so a product of -0.5 read as zero, and an unsigned
    # 2^64 - 1 wrapped to -1, so a product of 2^64 read as zero
    with pytest.raises(UsageError):
        all_zeroes_test(np.array([[1, 1.5]]), np.array([[1], [-1]]), 1, F17)
    with pytest.raises(UsageError):
        fingerprint_rep(np.array([[1, 2]]), np.array([["1"], [2]], dtype=object), F17)
    ones = np.ones((2, 1), dtype=np.int64)
    row = np.array([[2**64 - 1, 1]], dtype=np.uint64)
    assert not all_zeroes_test(row, ones, 1, F17).all_zero
    for left in (row, np.array([[2**70, -(2**70) - 1]], dtype=object)):
        rep = fingerprint_rep(left, ones, F17)
        assert rep.left_polys.ravel().tolist() == [int(v) % 17 for v in left[0]]


def test_verify_product_detects_planted_errors():
    rng = seeded_rng(31)
    for n in (2, 5, 8):
        a = rng.integers(-9, 10, (n, n))
        b = rng.integers(-9, 10, (n, n))
        c = naive_multiply(a, b).data
        assert verify_product(a, b, c, 1)
        for z in (1, 2, n):
            t = max(z, 1)
            bad = plant_errors(c, z, rng)
            assert not verify_product(a, b, bad, t)


def test_verify_false_answers_always_correct():
    # soundness needs no promise: even t far below z never yields a false
    # not-equal on exact products, and every not-equal here is real
    rng = seeded_rng(32)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.integers(-9, 10, (n, n))
        b = rng.integers(-9, 10, (n, n))
        c = naive_multiply(a, b).data
        assert verify_product(a, b, c, int(rng.integers(1, 2 * n)))


def test_verify_large_entries_multi_prime():
    rng = seeded_rng(33)
    n = 4
    a = rng.integers(-(2**39), 2**39, (n, n))
    b = rng.integers(-(2**39), 2**39, (n, n))
    c = naive_multiply(a, b).data
    pair = augment(IntMatrix(a), IntMatrix(b), IntMatrix(c))
    basis = build_crt_basis(n, pair.magnitude_bound())
    assert len(basis.fields) > 1
    assert verify_product(a, b, c, 2)
    bad = c.copy()
    bad[1, 2] += basis.fields[0].p  # invisible to the first prime alone
    assert not verify_product(a, b, bad, 2)
    bad[1, 3] -= basis.fields[0].p  # and now to the all-ones probe too
    stats = {}
    assert not verify_product(a, b, bad, 2, stats=stats)
    assert "probe_exits" not in stats


def test_cancelling_errors_are_refuted_by_the_fingerprint():
    # errors summing to zero pass the all-ones probe; the fingerprint at
    # t points still refutes them
    rng = seeded_rng(37)
    n = 9
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = naive_multiply(a, b).data
    row = c.copy()
    row[4, 1] += 6
    row[4, 7] -= 6
    spread = c.copy()
    for (i, j), d in zip(((0, 0), (3, 8), (8, 2), (5, 5)), (3, 4, -9, 2)):
        spread[i, j] += d
    for bad, t in ((row, 2), (spread, 4)):
        stats = {}
        assert not verify_product(a, b, bad, t, stats=stats)
        assert stats.get("probe_exits", 0) == 0 and stats["evaluations"] > 0


def _values_mod_each_prime(a, b, c, count):
    """Fingerprint values of the augmented pair at omega^0..omega^(count-1)
    mod every prime of its basis."""
    pair = augment(IntMatrix(a), IntMatrix(b), IntMatrix(c))
    out = {}
    for ctx in build_crt_basis(len(a), pair.magnitude_bound()).fields:
        out[ctx.p] = eval_fingerprint_progression(_pair_rep(pair, ctx), 0, count)
    return out


def test_known_values_stand_in_for_the_zero_test(monkeypatch):
    tested = []
    real = verify_mod.all_zeroes_test

    def zero_test(left, right, t, ctx, stats=None):
        tested.append(ctx.p)
        return real(left, right, t, ctx, stats)

    monkeypatch.setattr(verify_mod, "all_zeroes_test", zero_test)
    rng = seeded_rng(40)
    n, t = 4, 3
    a = rng.integers(-(2**39), 2**39, (n, n))
    b = rng.integers(-(2**39), 2**39, (n, n))
    c = naive_multiply(a, b).data
    bad = c.copy()
    bad[0, 1] += 5       # both cancel in the all-ones probe
    bad[3, 2] -= 5
    fields = build_crt_basis(n, augment(IntMatrix(a), IntMatrix(b), IntMatrix(c))
                             .magnitude_bound()).fields
    p1 = fields[0].p
    assert len(fields) > 1
    for cand, want in ((c, True), (bad, False)):
        known = _values_mod_each_prime(a, b, cand, t)
        assert verify_product(a, b, cand, t) is want
        # the same verdict from the values, with no zero test run
        tested.clear()
        assert verify_product(a, b, cand, t, known=known) is want
        assert tested == []
        # with p1 alone known, the zero test runs mod every other prime
        tested.clear()
        assert verify_product(a, b, cand, t, known={p1: known[p1]}) is want
        assert p1 not in tested and tested == [f.p for f in fields[1 : len(tested) + 1]]
    # the values of a wrong C refute a right one: the values are what is read
    assert not verify_product(a, b, c, t, known={p1: _values_mod_each_prime(a, b, bad, t)[p1]})
    # and zero values mod p1 do not excuse the other primes
    hidden = c.copy()
    hidden[1, 2] += p1
    hidden[1, 3] -= p1
    assert not verify_product(a, b, hidden, t, known={p1: np.zeros(t, dtype=np.int64)})


def test_known_values_validation():
    rng = seeded_rng(41)
    n = 5
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = naive_multiply(a, b).data
    p1 = next(iter(_values_mod_each_prime(a, b, c, 1)))
    # min(t, n^2) values are needed, and a short array never falls back
    for t, short in ((4, 3), (n * n + 7, n * n - 1)):
        with pytest.raises(UsageError):
            verify_product(a, b, c, t, known={p1: np.zeros(short, dtype=np.int64)})
    assert verify_product(a, b, c, n * n + 7, known={p1: np.zeros(n * n, dtype=np.int64)})
    # a prime outside the basis is ignored, whatever its values say
    outside = 101
    assert outside not in _values_mod_each_prime(a, b, c, 1)
    assert verify_product(a, b, c, 4, known={outside: np.ones(4, dtype=np.int64)})
    bad = c.copy()
    bad[2, 2] += 1
    assert not verify_product(a, b, bad, 4, known={outside: np.zeros(4, dtype=np.int64)})


def test_probe_refutes_without_a_transform(monkeypatch):
    def no_transform(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(poly, "_spectral_product", no_transform)
    rng = seeded_rng(38)
    n = 64
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    bad = naive_multiply(a, b).data
    bad[10, 20] += 3
    bad[30, 40] -= 1
    stats = {"evaluations": 0}
    assert not verify_product(a, b, bad, n, stats=stats)
    assert stats == {"evaluations": 0, "probe_exits": 1}


def test_probe_is_exact_at_the_magnitude_caps():
    # |AB| reaches n * (2^40 - 1)^2 and the sums n^3 times that: int64
    # partial sums would wrap, floats would lose the +-1
    rng = seeded_rng(39)
    cap = (1 << 40) - 1
    n = 6
    a = rng.choice((-cap, cap), (n, n))
    b = rng.choice((-cap, cap), (n, n))
    c = naive_multiply(a, b).data
    assert c.dtype == object
    for d in (1, -1):
        bad = c.copy()
        bad[2, 3] += d
        stats = {}
        assert not verify_product(a, b, bad, 1, stats=stats)
        assert stats == {"probe_exits": 1}
    # object entries above 2^62 through the public API
    big = np.array([[(1 << 70) + 3, -(1 << 65)], [7, (1 << 63) + 1]], dtype=object)
    prod = big.dot(big)             # exact: object entries are Python ints
    assert verify_product(big, big, prod, 1)
    for d in (1, -1):
        bad = prod.copy()
        bad[1, 0] += d
        stats = {}
        assert not verify_product(big, big, bad, 1, stats=stats)
        assert stats == {"probe_exits": 1}


def test_freivalds_and_sampling():
    rng = seeded_rng(34)
    a = rng.integers(-9, 10, (16, 16))
    b = rng.integers(-9, 10, (16, 16))
    c = naive_multiply(a, b).data
    assert freivalds_verify(a, b, c, seed=5)
    assert sampling_verify(a, b, c, seed=5)
    bad = plant_errors(c, 3, rng)
    assert not freivalds_verify(a, b, bad, seed=5)
    assert not sampling_verify(a, b, bad, seed=5)
    # a negative seed is a usage error, not numpy's ValueError
    with pytest.raises(UsageError):
        seeded_rng(-1)
    with pytest.raises(UsageError):
        freivalds_verify(a, b, c, seed=-1)
    with pytest.raises(UsageError):
        sampling_verify(a, b, c, seed=-1)


def test_sampling_refutes_what_the_t_eq_n_fingerprint_misses():
    # A = B = 0 and C holds the balanced coefficients of
    # f = (x - 1)(x - 3)(x - 9)(x - 27) * (1 + x^5 + x^10) mod 17, entry (i, j)
    # that of x^(i + 4j). Mod the one basis prime 17, with omega = 3, f
    # vanishes at omega^0..omega^3 and its coefficients sum to 0, so the
    # probe and the t = n = 4 fingerprint pass on 15 wrong entries: many
    # errors cancel. t = 16 covers every entry, and sampling hits one
    n, p = 4, 17
    f = np.ones(1, dtype=np.int64)
    for u in range(n):
        f = np.convolve(f, [-pow(3, u, p), 1]) % p
    f = np.convolve(f, [1, 0, 0, 0, 0] * 2 + [1]) % p
    f = (f + p // 2) % p - p // 2
    c = np.zeros(n * n, dtype=np.int64)
    c[: len(f)] = f
    c = c.reshape(n, n).T
    zero = np.zeros((n, n), dtype=np.int64)
    (ctx,) = build_crt_basis(n, augment(zero, zero, c).magnitude_bound()).fields
    assert (ctx.p, ctx.omega) == (p, 3)
    assert c.sum() == 0 and np.count_nonzero(c) == 15
    assert verify_product(zero, zero, c, n)      # more than t errors: allowed
    assert not verify_product(zero, zero, c, n * n)
    for seed in range(10):
        assert not sampling_verify(zero, zero, c, seed=seed)


def test_flawed_bilinear_blind_spot():
    d, eye = skew_pair()
    zero = np.zeros((2, 2), dtype=np.int64)
    vals = flawed_bilinear_test(d, eye, zero, range(10))
    assert vals == [0] * 10          # claims equal...
    assert not verify_product(d, eye, zero, 2)   # ...but they differ


def test_flawed_detects_generic_errors():
    rng = seeded_rng(35)
    a = rng.integers(-9, 10, (4, 4))
    b = rng.integers(-9, 10, (4, 4))
    c = naive_multiply(a, b).data
    assert all(v == 0 for v in flawed_bilinear_test(a, b, c, range(7)))
    bad = c.copy()
    bad[2, 2] += 1
    assert any(v != 0 for v in flawed_bilinear_test(a, b, bad, range(7)))
