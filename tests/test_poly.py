from math import sqrt

import numpy as np
import pytest

from matverify import (
    FieldCtx,
    InternalCheckError,
    Poly,
    ResourceLimitError,
    UsageError,
    build_crt_basis,
    horner_eval,
    multiplicative_order,
    multipoint_eval,
    poly_mul,
    power_sequence,
    seeded_rng,
)
from matverify import poly
from matverify.field import find_generator, sieve_primes_in_range
from matverify.matrix import next_pow2
from matverify.poly import progression_eval

from helpers import oracle_eval, oracle_poly_mul

F17 = FieldCtx(17, 3, order_lb=16)
F5 = FieldCtx(5, 2, order_lb=4)
BIG = FieldCtx((1 << 31) - 1, 7, order_lb=2)       # the largest word prime


def test_poly_normalization():
    f = Poly([18, -1, 0, 0], F17)
    assert list(f.coeffs) == [1, 16]
    assert f.degree == 1
    assert Poly([0], F17).is_zero
    assert Poly([17], F17).is_zero


def test_poly_refuses_non_integer_coefficients():
    # floats used to be truncated: Poly([1.5, 2.9]) read as [1, 2]
    for bad in ([1.5, 2.9], np.array([1.0, 2.0]), ["1"], [1, 2j], [3, None]):
        with pytest.raises(UsageError):
            Poly(bad, F17)
    exact = Poly(np.array([2**64 - 1, 2**70], dtype=object), F17)
    assert list(exact.coeffs) == [(2**64 - 1) % 17, 2**70 % 17]
    assert list(Poly(np.array([18], dtype=np.uint64), F17).coeffs) == [1]
    assert Poly([], F17).is_zero


def test_mul_goldens():
    assert list(poly_mul(Poly([1, 1], F17), Poly([1, 16], F17)).coeffs) == [1, 0, 16]
    assert list(poly_mul(Poly([1, 1, 1], F5), Poly([1, 1], F5)).coeffs) == [1, 2, 2, 1]


def test_mul_matches_schoolbook_across_sizes():
    rng = seeded_rng(101)
    for ctx in (F17, F5, BIG, FieldCtx(2, 1), FieldCtx(3, 2)):
        for da, db in [(0, 0), (1, 3), (31, 31), (33, 40), (64, 200), (511, 512)]:
            f = [int(x) for x in rng.integers(0, ctx.p, da + 1)]
            g = [int(x) for x in rng.integers(0, ctx.p, db + 1)]
            got = poly_mul(Poly(f, ctx), Poly(g, ctx))
            assert [int(v) for v in got.coeffs] == oracle_poly_mul(f, g, ctx.p)


def test_multipoint_golden():
    assert multipoint_eval(Poly([1, 0, 0, 1], F17), [1, 2]) == [2, 9]


def test_multipoint_matches_horner_incl_tree_path():
    rng = seeded_rng(55)
    for ctx in (F17, BIG):
        for deg, npts in [(5, 3), (70, 70), (200, 64), (300, 129)]:
            f = Poly([int(x) for x in rng.integers(0, ctx.p, deg + 1)], ctx)
            pts = [int(x) for x in rng.integers(0, ctx.p, npts)]
            assert multipoint_eval(f, pts) == [horner_eval(f, x) for x in pts]


def test_progression_golden():
    f = Poly([1, 0, 0, 1], F17)
    assert progression_eval(f.coeffs, 1, 3, 4, f.ctx.p).tolist() == [2, 11, 16, 15]


def test_progression_matches_horner():
    rng = seeded_rng(31)
    p = 262147
    ctx = FieldCtx(p, 2, order_lb=p - 1)
    for deg, count in [(0, 5), (3, 1), (7, 9), (100, 150), (511, 512)]:
        f = Poly([int(x) for x in rng.integers(0, p, deg + 1)], ctx)
        first = int(rng.integers(1, p))
        ratio = int(rng.integers(2, p))
        got = progression_eval(f.coeffs, first, ratio, count, p)
        want = [
            oracle_eval([int(v) for v in f.coeffs], first * pow(ratio, k, p) % p, p)
            for k in range(count)
        ]
        assert [int(v) for v in got] == want


def test_progression_sparse_and_edge_dispatch():
    p = 262147
    ctx = FieldCtx(p, 2, order_lb=p - 1)
    lone = Poly([0] * 100 + [5], ctx)
    got = progression_eval(lone.coeffs, 3, 7, 40, p)
    want = [5 * pow(3 * pow(7, k, p) % p, 100, p) % p for k in range(40)]
    assert [int(v) for v in got] == want
    zero = Poly([0], ctx)
    assert progression_eval(zero.coeffs, 3, 7, 6, p).tolist() == [0] * 6
    # the chirp transform needs a nonzero ratio, also with nothing to transform
    f = Poly([4, 1, 1], ctx)
    for ratio, count in ((0, 4), (p, 4), (0, 0)):
        with pytest.raises(UsageError):
            progression_eval(f.coeffs, 2, ratio, count, p)


def test_moduli_outside_the_word_are_refused():
    # residue products at 2^31 and up would overflow int64; below 2 there
    # are no residues, and a negative modulus never reaches the residue 1
    for p in (1 << 31, 2147483659, (1 << 61) - 1, 1, 0, -7):
        with pytest.raises(UsageError):
            FieldCtx(p, 2, order_lb=2)
        with pytest.raises(UsageError):
            power_sequence(3, 4, p)
        with pytest.raises(UsageError):
            multiplicative_order(3, p)


def test_progression_at_largest_word_prime():
    # 2^31 - 1 is the largest modulus the FFT kernel takes; with 2048 points
    # and 2048 coefficients the transform is long enough to need three limbs
    p = (1 << 31) - 1
    ctx = FieldCtx(p, 7, order_lb=p - 1)
    rng = seeded_rng(33)
    coeffs = [int(x) for x in rng.integers(0, p, 2048)]
    coeffs[::97] = [p - 1] * len(coeffs[::97])
    f = Poly(coeffs, ctx)
    first, ratio, count = 5, int(rng.integers(2, p)), 2048
    got = progression_eval(f.coeffs, first, ratio, count, p).tolist()
    want = [oracle_eval(coeffs, first * pow(ratio, k, p) % p, p) for k in range(count)]
    assert got == want


def test_progression_rows_match_single_rows():
    p = 262147
    rng = seeded_rng(34)
    rows = rng.integers(0, p, (5, 40))
    rows[1] = 0
    rows[2, :] = 0
    rows[2, 17] = 9            # a monomial row
    rows[3, 30:] = 0
    got = progression_eval(rows, 11, 3, 70, p)
    assert got.shape == (5, 70)
    # numpy integers, as counts from np.count_nonzero arrive, act as ints
    same = progression_eval(rows, np.int64(11), np.int64(3), np.int64(70), p)
    assert np.array_equal(same, got)
    for k in range(5):
        assert list(got[k]) == list(progression_eval(rows[k], 11, 3, 70, p))
        pts = [11 * pow(3, u, p) % p for u in range(70)]
        assert list(got[k]) == [oracle_eval(rows[k].tolist(), x, p) for x in pts]


def test_monomial_rows_across_segments(monkeypatch):
    # rows c * X^e at e = 0, 17 and n - 1 and a zero row, at the widest
    # word prime, over two segments of points
    p = (1 << 31) - 1
    first, ratio, count, n = 5, 48271, 70, 37
    rows = np.zeros((4, n), dtype=np.int64)
    rows[0, 0], rows[1, 17], rows[2, n - 1] = p - 1, p - 2, 1   # rows[3] is zero
    monkeypatch.setattr(poly, "_SEGMENT", 16)     # segments of 37 and 33 points
    plan = poly.ProgressionPlan(n, first, ratio, count, p)
    assert [(u0, cnt) for u0, cnt, _ in plan.segments] == [(0, 37), (37, 33)]
    got = progression_eval(rows, first, ratio, count, p)
    pts = [first * pow(ratio, u, p) % p for u in range(count)]
    assert got.tolist() == [[oracle_eval(r.tolist(), x, p) for x in pts] for r in rows]


@pytest.mark.parametrize("p, limbs", [(16411, 1), ((1 << 31) - 1, 2)])
def test_raw_reuses_one_workspace_across_blocks(monkeypatch, p, limbs):
    # 11 rows of C's columns, as the chirp's C loop passes them: a transposed,
    # non-contiguous view. Rows 2, 5 and 6 are dead, so the 8 live rows fill
    # two blocks of 3 and a short third of 2, over two segments of points;
    # a stale row left in the plan's workspace, by a block or by an earlier
    # call, would show in the values
    first, ratio, count, n = 5, 10, 30, 20
    monkeypatch.setattr(poly, "_SEGMENT", 8)
    monkeypatch.setattr(poly, "_CHUNK_POINTS", 3 * 40)
    plan = poly.ProgressionPlan(n, first, ratio, count, p)
    assert (plan.length, plan.block_rows, plan.plan[0]) == (40, 3, limbs)
    assert [(u0, cnt) for u0, cnt, _ in plan.segments] == [(0, 20), (20, 10)]
    c = seeded_rng(38).integers(0, p, (n, 11))
    c[:, [2, 5, 6]] = 0
    c[:, 0] = p - 1
    c[n - 1, 1] = 0
    c[:7, 9] = 0
    rows = c.T
    assert not rows.flags.c_contiguous
    pts = [first * pow(ratio, u, p) % p for u in range(count)]
    # the repeat follows a call on 4 rows, which left others in the workspace
    for block in (rows, rows[[4, 9, 1, 7]], rows):
        got = plan.raw(block) * plan.post % p
        assert got.tolist() == [[oracle_eval(r.tolist(), x, p) for x in pts] for r in block]


def test_kernel_checks_transform_size(monkeypatch):
    monkeypatch.setattr(poly, "_FFT_LIMIT", 64)
    ctx = FieldCtx(262147, 2, order_lb=2)
    f = Poly(list(range(1, 100)), ctx)
    with pytest.raises(ResourceLimitError):
        progression_eval(f.coeffs, 1, 3, 10, ctx.p)
    with pytest.raises(ResourceLimitError):
        poly_mul(f, f)


def test_kernel_rejects_inexact_rounding(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    ctx = FieldCtx(262147, 2, order_lb=2)
    f = Poly(list(range(1, 100)), ctx)
    with pytest.raises(InternalCheckError):
        progression_eval(f.coeffs, 1, 3, 50, ctx.p)
    with pytest.raises(InternalCheckError):
        poly_mul(f, f)


def test_limb_plan_pins():
    # one limb serves t = n up to 512 at L = 1024, where the rows' support
    # is n; n = 513 needs L = 2048 and two limbs. Wider primes and the
    # largest word prime at L = 4096 keep their split
    assert poly._limb_plan(147457, 1024, 384) == (1, 18)     # n = 384
    assert poly._limb_plan(182333, 1024, 427) == (1, 18)     # n = 427
    assert poly._limb_plan(262147, 1024, 512) == (1, 19)     # n = 512
    assert poly._limb_plan(263171, 2048, 513)[0] == 2        # n = 513
    assert poly._limb_plan((1 << 31) - 1, 4096, 2048)[0] == 3


_SMOOTH = sorted({f << a for f in (1, 3, 5) for a in range(24)})


def test_fft_length_is_the_least_smooth_length():
    for x in range(1, 5000):
        assert poly.fft_length(x) == next(L for L in _SMOOTH if L >= x), x
    # lengths move only off powers of two
    assert poly._segment(384, 384) == (384, 768)
    assert poly._segment(320, 320) == (320, 640)
    assert poly._segment(64, 256) == (256, 320)
    assert poly._segment(128, 128) == (128, 256)
    assert poly._segment(512, 512) == (512, 1024)


def test_smooth_lengths_take_the_plan_of_the_power_of_two_above():
    primes = {(1 << 31) - 1}
    for n in (64, 128, 320, 384, 512, 1024):
        primes.update(f.p for f in build_crt_basis(n, 10**30).fields)
    lengths = [L for L in _SMOOTH if L <= 1 << 22] + list(range(1, 3000, 37))
    for p in sorted(primes):
        for length in lengths:
            for support in {1, 64, 384, length}:
                assert (poly._limb_plan(p, length, support)
                        == poly._limb_plan(p, next_pow2(length), support)), (p, length)


def _widest_one_limb_prime(length, support):
    """The largest prime whose plan at this length and support is one limb."""
    lo, hi = 5, 1 << 31
    while hi - lo > 1:     # one limb holds for every p below the threshold
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if poly._limb_plan(mid, length, support)[0] == 1 else (lo, mid)
    return max(sieve_primes_in_range(lo - 5000, lo))


@pytest.mark.parametrize("n, count, length", [(384, 384, 768), (64, 256, 320)])
def test_progression_eval_on_smooth_lengths_at_the_widest_one_limb_prime(n, count, length):
    # rows of n coefficients at count points run on transforms of 3 * 2^8
    # and 5 * 2^6 points, at the largest prime that still takes one limb
    # there, with every coefficient p - 1 (and a random row); Horner agrees
    p = _widest_one_limb_prime(length, n)
    assert poly._limb_plan(p, length, n)[0] == 1
    g = find_generator(p)
    plan = poly.ProgressionPlan(n, 3, g, count, p)
    assert (plan.length, plan.plan[0]) == (length, 1)
    rng = seeded_rng(39)
    rows = np.stack([np.full(n, p - 1), rng.integers(0, p, n)])
    got = progression_eval(rows, 3, g, count, p)
    ctx = FieldCtx(p, g, order_lb=2)
    pts = [3 * pow(g, u, p) % p for u in range(count)]
    for row, vals in zip(rows, got):
        assert vals.tolist() == multipoint_eval(Poly(row, ctx), pts)


@pytest.mark.parametrize("lf, lg", [(6, 7), (10, 11), (200, 185), (300, 341), (1000, 537)])
def test_poly_mul_on_smooth_lengths(lf, lg):
    # products of 12, 20, 384, 640 and 1536 coefficients: transforms of
    # 3 * 2^a and 5 * 2^a points
    p = 147457
    ctx = FieldCtx(p, 10, order_lb=2)
    length = poly.fft_length(lf + lg - 1)
    assert length & (length - 1) and length == lf + lg - 1
    rng = seeded_rng(40 + lf)
    for f, g in ((rng.integers(0, p, lf), rng.integers(0, p, lg)),
                 ([p - 1] * lf, [p - 1] * lg)):
        got = poly_mul(Poly(f, ctx), Poly(g, ctx))
        assert [int(v) for v in got.coeffs] == oracle_poly_mul(f, g, p)


def _bound(limbs, width, length, support, p):
    # Percival's first-order bound on the 2-norms the plan assumes: one
    # limb of balanced residues over `support` and `length` entries, or
    # `limbs` limb products of entries within 2^width
    m = length.bit_length() - 1
    norms = (sqrt(support * length) * (p // 2) ** 2 if limbs == 1
             else limbs * length * 4**width)
    return norms * (13 * m + 3) * 2.0**-53


def test_limb_plans_meet_the_bound_on_the_magnitudes_they_assume():
    primes = {(1 << 31) - 1}
    for n in (96, 128, 256, 320, 384, 426, 427, 512, 513, 1024):
        primes.update(f.p for f in build_crt_basis(n, 10**30).fields)
    for p in sorted(primes | {2}):
        # products of residues reach p^2 - 1 in magnitude, of either sign
        edges = [0, p // 2, p // 2 + 1, p - 1, p, p * p - 1]
        edges += [-x for x in edges] + [-(p // 2) - 1, -p * p + p // 2 + 1]
        wide = seeded_rng(p % 997).integers(-p * p + 1, p * p, 2000)
        for x in (np.array(edges), wide):
            got = poly._balanced(x.copy(), p)
            assert got.tolist() == [(v + p // 2) % p - p // 2 for v in x.tolist()]
            assert -(p // 2) <= got.min() and got.max() <= (p - 1) // 2
        if p % 2:
            edges = poly._balanced(np.array([0, p // 2, p // 2 + 1, p - 1]), p)
            assert np.array_equal(edges, [0, p // 2, -(p // 2), -1])
    for p in sorted(primes):
        bits = (p - 1).bit_length()
        balanced = np.array([-(p // 2), p // 2])
        for length in (1 << m for m in range(4, 23)):
            for support in {1, length // 4, length // 2, length}:
                limbs, width = poly._limb_plan(p, length, support)
                assert _bound(limbs, width, length, support, p) < 0.25, (p, length)
                parts = poly._limbs(balanced, limbs, width)
                limit = p // 2 if limbs == 1 else 1 << width
                assert max(int(np.abs(part).max()) for part in parts) <= limit
                weights = [1 << (width * j) for j in range(limbs)]
                assert np.array_equal(sum(w * q for w, q in zip(weights, parts)), balanced)
                if limbs > 1:   # and no fewer limbs would do
                    fewer = -(-bits // (limbs - 1))
                    assert _bound(limbs - 1, fewer, length, support, p) >= 0.25, (p, length)


def _cyclic(x, y):
    full = np.convolve(x, y)
    out = full[: len(x)].copy()
    out[: len(full) - len(x)] += full[len(x) :]
    return out


def test_spectral_product_exact_at_worst_case_magnitudes():
    # every row residue p - 1 against a kernel of all -(p - 1)/2: each
    # output sums L products of the largest magnitudes the one-limb plan
    # allows; the second kernel scrambles the signs
    p, length = 147457, 1024
    plan = poly._limb_plan(p, length, length)
    assert plan[0] == 1
    rng = seeded_rng(35)
    rows = np.full((2, length), p // 2, dtype=np.int64)
    rows[1, rng.random(length) < 0.5] = 0
    for kernel in (np.full(length, -(p // 2)),
                   rng.choice([-(p // 2), p // 2], length)):
        xs = poly._limb_spectra(rows, length, plan)
        ys = poly._limb_spectra(kernel, length, plan)
        got = poly._spectral_product(xs, ys, length, 0, length, p, plan)
        for row, vals in zip(rows, got):
            assert np.array_equal(vals, _cyclic(row, kernel) % p)


def test_one_limb_exact_at_n_512():
    # t = n = 512: rows of 512 coefficients at +-p//2 against kernels of
    # 1024 entries at +-p//2 with scrambled signs, in one limb, where the
    # 2-norm bound reads 0.18
    p, length, support = 262147, 1024, 512
    plan = poly._limb_plan(p, length, support)
    assert plan[0] == 1
    assert _bound(1, plan[1], length, support, p) < 0.19
    rng = seeded_rng(37)
    rows = np.zeros((3, length), dtype=np.int64)
    rows[0, :support] = p // 2
    rows[1, :support] = -(p // 2)
    rows[2, :support] = rng.choice([-(p // 2), p // 2], support)
    for kernel in (np.full(length, p // 2), rng.choice([-(p // 2), p // 2], length),
                   rng.choice([-(p // 2), p // 2], length)):
        xs = poly._limb_spectra(rows, length, plan)
        ys = poly._limb_spectra(kernel, length, plan)
        got = poly._spectral_product(xs, ys, length, 0, length, p, plan)
        for row, vals in zip(rows, got):
            assert np.array_equal(vals, _cyclic(row, kernel) % p)


def test_poly_mul_worst_case_in_one_limb():
    # 500 x 500 coefficients fill a transform of length 1024, which took two
    # limbs before the plan used true magnitudes
    p = 147457
    ctx = FieldCtx(p, 10, order_lb=2)
    f = [p - 1] * 500
    assert poly._limb_plan(p, 1024, 500)[0] == 1
    got = poly_mul(Poly(f, ctx), Poly(f, ctx))
    assert [int(v) for v in got.coeffs] == oracle_poly_mul(f, f, p)


def test_convolution_operands_have_the_planned_magnitudes(monkeypatch):
    # every caller of the convolution feeds two operands of balanced
    # residues, as _limb_plan assumes
    seen = []
    limb_spectra = poly._limb_spectra

    def record(x, length, plan, work=None):
        seen.append((int(np.min(x)), int(np.max(x))))
        return limb_spectra(x, length, plan, work)

    monkeypatch.setattr(poly, "_limb_spectra", record)
    poly._chirp.cache_clear()   # the kernel spectrum too
    p = 147457
    rows = np.full((3, 300), p - 1)
    rows[1, ::2] = 0
    progression_eval(rows, 5, 10, 300, p)
    f = Poly([p - 1] * 100 + [p // 2 + 1] * 100, FieldCtx(p, 10, order_lb=2))
    poly_mul(f, f)
    assert len(seen) == 4       # kernel and rows, then both factors
    assert all(-(p // 2) <= lo and hi <= p // 2 for lo, hi in seen)


def test_one_cached_chirp_table_per_transform(monkeypatch):
    p, first, ratio, count = 147457, 5, 10, 50
    rng = seeded_rng(36)
    rows = rng.integers(0, p, (4, 10))
    rows[1:] = 0
    rows[1, 3], rows[2, 9], rows[3, 0] = 7, p - 1, 2      # monomial rows
    pts = [first * pow(ratio, u, p) % p for u in range(count)]

    def oracle(block):
        return [[oracle_eval(row.tolist(), x, p) for x in pts] for row in block]

    monkeypatch.setattr(poly, "_SEGMENT", 16)       # four segments of points
    poly._chirp.cache_clear()
    assert progression_eval(rows, first, ratio, count, p).tolist() == oracle(rows)

    # the repeat transforms only its rows: one row block, four segments
    spectra = []
    limb_spectra = poly._limb_spectra
    monkeypatch.setattr(poly, "_limb_spectra",
                        lambda x, *a: spectra.append(x.shape) or limb_spectra(x, *a))
    assert progression_eval(rows, first, ratio, count, p).tolist() == oracle(rows)
    assert spectra == [(4, 10)] * 4
    mono = rows[1:]
    assert progression_eval(mono, first, ratio, count, p).tolist() == oracle(mono)

    # evicted and cleared tables are rebuilt to the same values
    size = poly._chirp.cache_info().maxsize
    for r in range(2, size + 3):
        assert progression_eval(rows[0], 1, r, 3, p).tolist() == [
            oracle_eval(rows[0].tolist(), pow(r, u, p), p) for u in range(3)]
    assert poly._chirp.cache_info().currsize == size
    assert progression_eval(rows, first, ratio, count, p).tolist() == oracle(rows)
    poly._chirp.cache_clear()
    assert progression_eval(rows, first, ratio, count, p).tolist() == oracle(rows)
