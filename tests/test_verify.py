import numpy as np
import pytest

from matverify import (
    FieldCtx,
    IntMatrix,
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

from helpers import fingerprint_coeffs, oracle_eval, plant_errors, skew_pair

F17 = FieldCtx(17, 3, order_lb=16)


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


def test_fingerprint_progression_matches_pointwise():
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
    rep = fingerprint_rep(left, right, ctx, i_start=4, j_start=8, side=side)
    active = np.count_nonzero(rep.left_polys.any(1) & rep.right_polys.any(1))
    step = poly.rows_per_block(side, count)
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
    rep = fingerprint_rep(left, right, ctx, i_start=4, j_start=8, side=side)
    stats = {}
    vals = eval_fingerprint_progression(rep, 7, count, stats, grid=2)
    assert vals.shape == (2, 2, count)
    h = side // 2
    pts = [pow(ctx.omega, 7 + k, ctx.p) for k in range(count)]
    sub_stats = {}
    for ai in range(2):
        for bi in range(2):
            sub = fingerprint_rep(left, right, ctx, 4 + ai * h, 8 + bi * h, h)
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


def test_fingerprint_block_slicing():
    rng = seeded_rng(23)
    left = rng.integers(0, 17, (8, 8))
    right = rng.integers(0, 17, (8, 8))
    rep = fingerprint_rep(left, right, F17, i_start=4, j_start=0, side=4)
    block_l = left[4:8, :]
    block_r = right[:, 0:4]
    coeffs = fingerprint_coeffs(block_l.tolist(), block_r.tolist(), 17)
    pts = [1, 2, 5]
    assert eval_fingerprint(rep, pts) == [oracle_eval(coeffs, x, 17) for x in pts]


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
