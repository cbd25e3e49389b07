import io
import tracemalloc

import numpy as np
import pytest

from matverify import (
    IntMatrix,
    PromiseViolationError,
    UsageError,
    build_crt_basis,
    correct_product,
    multiply_output_sensitive,
    naive_multiply,
    seeded_rng,
)
from matverify import poly
from matverify.correct import CorrectionEngine
from matverify.matrix import augment

from helpers import plant_errors


def contains_block(outer, inner) -> bool:
    return (
        outer.i_start <= inner.i_start
        and inner.i_start + inner.side <= outer.i_start + outer.side
        and outer.j_start <= inner.j_start
        and inner.j_start + inner.side <= outer.j_start + outer.side
    )


def test_osmm_identity_golden():
    eye = IntMatrix(np.eye(8, dtype=np.int64))
    res = multiply_output_sensitive(eye, eye, 8)
    assert np.array_equal(res.product.data, np.eye(8, dtype=np.int64))
    assert res.correction_count == 8
    assert [(i, j) for i, j, _, _ in res.corrections] == [(k, k) for k in range(8)]


def test_find_order_prefers_first_child():
    eye = IntMatrix(np.eye(2, dtype=np.int64))
    res = multiply_output_sensitive(eye, eye, 4)
    assert res.corrections[0][:2] == (0, 0)


def test_osmm_zero_product():
    zero = IntMatrix(np.zeros((4, 4), dtype=np.int64))
    res = multiply_output_sensitive(zero, zero, 1)
    assert not res.product.data.any()
    assert res.correction_count == 0


def test_osmm_cancelling_product():
    # dense factors, sparse product: one nonzero entry from cancellation
    a = np.array([[1, 1], [1, -1]], dtype=np.int64)
    b = np.array([[1, 1], [-1, 1]], dtype=np.int64)
    res = multiply_output_sensitive(a, b, 2)
    assert np.array_equal(res.product.data, a @ b)
    assert res.correction_count == 2


def test_correct_roundtrip_and_count():
    rng = seeded_rng(41)
    for n in (2, 5, 8, 13):
        a = rng.integers(-9, 10, (n, n))
        b = rng.integers(-9, 10, (n, n))
        c = naive_multiply(a, b).data
        for z in {0, 1, n, 2 * n}:
            t = z + int(rng.integers(0, 3))
            bad = plant_errors(c, z, rng)
            res = correct_product(a, b, bad, t)
            assert np.array_equal(res.product.data, c)
            assert res.correction_count == z
            assert all(0 <= i < n and 0 <= j < n for i, j, _, _ in res.corrections)


def test_correct_does_not_mutate_input():
    rng = seeded_rng(42)
    a = rng.integers(-9, 10, (4, 4))
    b = rng.integers(-9, 10, (4, 4))
    bad = plant_errors(naive_multiply(a, b).data, 3, rng)
    keep = bad.copy()
    correct_product(a, b, bad, 3)
    assert np.array_equal(bad, keep)


def test_promise_violation_raises_before_overrun():
    rng = seeded_rng(43)
    a = rng.integers(-9, 10, (8, 8))
    b = rng.integers(-9, 10, (8, 8))
    bad = plant_errors(naive_multiply(a, b).data, 5, rng)
    with pytest.raises(PromiseViolationError) as err:
        correct_product(a, b, bad, 4)
    assert err.value.corrections == 4
    assert err.value.position is not None


def test_promise_violation_t_zero():
    eye = IntMatrix(np.eye(2, dtype=np.int64))
    zero = IntMatrix(np.zeros((2, 2), dtype=np.int64))
    res = correct_product(eye, eye, naive_multiply(eye, eye), 0)
    assert res.correction_count == 0
    with pytest.raises(PromiseViolationError):
        correct_product(eye, eye, zero, 0)


def test_multi_prime_blind_spot():
    # AB - C = 5 at one entry; the first basis prime is 5, so the field
    # view of pass one is clean and the integer sweep must force pass two
    a = IntMatrix(np.array([[1, 1], [0, 0]]))
    b = IntMatrix(np.array([[2, 0], [3, 0]]))
    zero = IntMatrix(np.zeros((2, 2), dtype=np.int64))
    basis = build_crt_basis(2, augment(a, b, zero).magnitude_bound())
    assert [f.p for f in basis.fields][0] == 5
    res = correct_product(a, b, zero, 1)
    assert res.product.data.tolist() == [[5, 0], [0, 0]]
    assert res.prime_passes == 2


def test_single_error_never_doubles_granularity():
    # one wrong entry: the first granularity guess suffices at every level
    rng = seeded_rng(44)
    a = rng.integers(-9, 10, (8, 8))
    b = rng.integers(-9, 10, (8, 8))
    bad = naive_multiply(a, b).data.copy()
    bad[2, 6] += 3
    res = correct_product(a, b, bad, 1)
    assert res.correction_count == 1
    for s, tau in res.granularity_map.items():
        assert tau <= s.side


def test_granularity_obeys_sparsity_bound():
    rng = seeded_rng(45)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        z = int(rng.integers(0, n + 1))
        a = rng.integers(-9, 10, (n, n))
        b = rng.integers(-9, 10, (n, n))
        c = naive_multiply(a, b).data
        bad = plant_errors(c, z, rng)
        res = correct_product(a, b, bad, max(z, 1))
        m = 1
        while m < n:
            m *= 2
        diff = np.zeros((m, m), dtype=np.int64)
        diff[:n, :n] = c - bad
        for s, tau in res.granularity_map.items():
            block_z = int(
                np.count_nonzero(
                    diff[s.i_start : s.i_start + s.side,
                         s.j_start : s.j_start + s.side]
                )
            )
            assert tau <= max(s.side, 2 * block_z)


def test_cache_coherence_and_untouched_blocks():
    rng = seeded_rng(46)
    for _ in range(6):
        n = int(rng.integers(2, 13))
        z = int(rng.integers(1, min(n * n, 2 * n) + 1))
        a = rng.integers(-9, 10, (n, n))
        b = rng.integers(-9, 10, (n, n))
        bad = plant_errors(naive_multiply(a, b).data, z, rng)
        snapshots = {}

        def pre_write(engine, i, j, old, new):
            snapshots.clear()
            for s, stored in engine.vals.items():
                if not s.contains(i, j):
                    snapshots[s] = stored.copy()

        def post_update(engine, i, j):
            for s, stored in engine.vals.items():
                scratch = engine.scratch_values(s, 0, len(stored))
                assert stored.dtype == np.int64
                assert np.array_equal(stored, scratch), (s, i, j)
            for s, before in snapshots.items():
                assert np.array_equal(engine.vals[s], before)
            # the queue stays a nested chain of certified-nonzero blocks
            q = engine.queue
            for outer, inner in zip(q, q[1:]):
                assert contains_block(outer, inner)
            for s in q:
                assert engine.vals[s].any()

        res = correct_product(
            a, b, bad, z, pre_write=pre_write, post_update=post_update
        )
        assert res.correction_count == z


def test_trace_stream(tmp_path):
    rng = seeded_rng(47)
    a = rng.integers(-9, 10, (4, 4))
    b = rng.integers(-9, 10, (4, 4))
    bad = plant_errors(naive_multiply(a, b).data, 2, rng)
    path = tmp_path / "trace.txt"
    with open(path, "w") as fh:
        correct_product(a, b, bad, 2, trace=fh)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        for key in ("prime=", "iter=", "sub=", "tau=", "nu=", "pos="):
            assert key in line


def test_input_validation():
    rng = seeded_rng(48)
    a = rng.integers(-9, 10, (4, 4))
    b = rng.integers(-9, 10, (4, 3))
    with pytest.raises(UsageError):
        multiply_output_sensitive(a, b, 1)
    sq = rng.integers(-9, 10, (4, 4))
    with pytest.raises(UsageError):
        correct_product(a, sq, naive_multiply(a, sq), -1)


def test_correction_golden_counts_and_trace():
    # n = 12 pads to 16; the delta 257 vanishes mod the first prime, so the
    # integer sweep forces a second pass that finds it mod 263
    rng = seeded_rng(47)
    a = rng.integers(-9, 10, (12, 12))
    b = rng.integers(-9, 10, (12, 12))
    bad = naive_multiply(a, b).data.copy()
    for i, j, d in ((0, 0, 3), (0, 1, -2), (1, 0, 5), (1, 1, 1), (2, 3, -4),
                    (10, 11, 257)):
        bad[i, j] += d
    trace = io.StringIO()
    res = correct_product(a, b, bad, 6, trace=trace)
    assert (res.evaluations, res.max_granularity, res.prime_passes) == (4532, 16, 2)
    assert res.corrections == [
        (0, 0, 262, 259), (0, 1, 29, 31), (1, 0, -82, -87), (1, 1, 57, 56),
        (2, 3, 19, 23), (10, 11, 296, 39),
    ]
    assert trace.getvalue() == (
        "prime=257 iter=0 sub=(0,0,16) tau=16 nu=0 pos=(0,0)\n"
        "prime=257 iter=1 sub=(0,0,2) tau=2 nu=0 pos=(0,1)\n"
        "prime=257 iter=2 sub=(0,0,2) tau=2 nu=0 pos=(1,0)\n"
        "prime=257 iter=3 sub=(0,0,2) tau=2 nu=0 pos=(1,1)\n"
        "prime=257 iter=4 sub=(0,0,4) tau=4 nu=0 pos=(2,3)\n"
        "prime=263 iter=0 sub=(0,0,16) tau=16 nu=0 pos=(10,11)\n"
    )


def test_osmm_golden_counts_and_trace():
    # two nonzero columns of B: AB has 16 nonzeroes in columns 1 and 6
    rng = seeded_rng(48)
    a = rng.integers(-9, 10, (8, 8))
    b = np.zeros((8, 8), dtype=np.int64)
    b[:, [1, 6]] = rng.integers(-2, 3, (8, 2))
    trace = io.StringIO()
    res = multiply_output_sensitive(a, b, 16, trace=trace)
    assert (res.evaluations, res.max_granularity, res.prime_passes) == (1066, 8, 1)
    assert res.corrections == [
        (0, 1, 0, -12), (1, 1, 0, -27), (2, 1, 0, 8), (3, 1, 0, -30),
        (0, 6, 0, -18), (1, 6, 0, -8), (2, 6, 0, -5), (3, 6, 0, -7),
        (4, 1, 0, 18), (5, 1, 0, -34), (6, 1, 0, 8), (7, 1, 0, 21),
        (4, 6, 0, 14), (5, 6, 0, -33), (6, 6, 0, -2), (7, 6, 0, 27),
    ]
    assert trace.getvalue() == (
        "prime=67 iter=0 sub=(0,0,8) tau=8 nu=0 pos=(0,1)\n"
        "prime=67 iter=1 sub=(0,0,2) tau=2 nu=0 pos=(1,1)\n"
        "prime=67 iter=2 sub=(0,0,4) tau=4 nu=0 pos=(2,1)\n"
        "prime=67 iter=3 sub=(2,0,2) tau=2 nu=0 pos=(3,1)\n"
        "prime=67 iter=4 sub=(0,0,8) tau=8 nu=0 pos=(0,6)\n"
        "prime=67 iter=5 sub=(0,6,2) tau=2 nu=0 pos=(1,6)\n"
        "prime=67 iter=6 sub=(0,4,4) tau=4 nu=0 pos=(2,6)\n"
        "prime=67 iter=7 sub=(2,6,2) tau=2 nu=0 pos=(3,6)\n"
        "prime=67 iter=8 sub=(0,0,8) tau=8 nu=0 pos=(4,1)\n"
        "prime=67 iter=9 sub=(4,0,2) tau=2 nu=0 pos=(5,1)\n"
        "prime=67 iter=10 sub=(4,0,4) tau=4 nu=0 pos=(6,1)\n"
        "prime=67 iter=11 sub=(6,0,2) tau=2 nu=0 pos=(7,1)\n"
        "prime=67 iter=12 sub=(0,0,8) tau=8 nu=0 pos=(4,6)\n"
        "prime=67 iter=13 sub=(4,6,2) tau=2 nu=0 pos=(5,6)\n"
        "prime=67 iter=14 sub=(4,4,4) tau=4 nu=0 pos=(6,6)\n"
        "prime=67 iter=15 sub=(6,6,2) tau=2 nu=0 pos=(7,6)\n"
    )


def _check_each_search(monkeypatch) -> dict:
    """Wrap CorrectionEngine.find_nonzero: after every search, each block
    whose prefix grew holds exactly the values the per-block oracle
    recomputes, and the evaluation counter grew by count * (active inner
    indices) summed over those blocks."""
    seen = {"searches": 0, "one_half": 0}
    original = CorrectionEngine.find_nonzero

    def checked(engine, s):
        prefix_before = {blk: len(v) for blk, v in engine.vals.items()}
        evals_before = engine.stats["evaluations"]
        out = original(engine, s)
        grown = {
            blk: len(v) - prefix_before.get(blk, 0) for blk, v in engine.vals.items()
        }
        want = 0
        half = engine.bp.shape[0] // 2
        for blk, count in grown.items():
            if not count:
                continue
            i0, j0, side = blk.i_start, blk.j_start, blk.side
            rows = engine.ap[i0 : i0 + side].any(axis=0)
            cols = engine.bp[:, j0 : j0 + side].any(axis=1)
            want += count * int(np.count_nonzero(rows & cols))
            # live -I rows reach one column of the block, so one column half
            # of its parent
            seen["one_half"] += int(np.count_nonzero((rows & cols)[half:]))
        assert engine.stats["evaluations"] - evals_before == want
        for blk, count in grown.items():
            if count:
                stored = engine.vals[blk]
                scratch = engine.scratch_values(blk, 0, len(stored))
                assert np.array_equal(stored, scratch), blk
        seen["searches"] += 1
        return out

    monkeypatch.setattr(CorrectionEngine, "find_nonzero", checked)
    return seen


@pytest.mark.parametrize("n, z, chunk_points", [
    (3, 3, None), (33, 12, None), (96, 6, None), (33, 12, 64),
])
def test_batched_children_match_per_block_oracle(monkeypatch, n, z, chunk_points):
    # n = 3, 33 and 96 pad to 4, 64 and 128; a tiny _CHUNK_POINTS splits
    # every batched step into several row blocks
    if chunk_points is not None:
        monkeypatch.setattr(poly, "_CHUNK_POINTS", chunk_points)
    seen = _check_each_search(monkeypatch)
    rng = seeded_rng(49 + n)
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = naive_multiply(a, b).data
    res = correct_product(a, b, plant_errors(c, z, rng), z)
    assert np.array_equal(res.product.data, c)
    assert res.correction_count == z
    assert seen["searches"] == z and seen["one_half"] > 0


def test_batched_children_output_sensitive(monkeypatch):
    # C = 0: the C columns of (A | C) vanish until entries are written
    seen = _check_each_search(monkeypatch)
    rng = seeded_rng(50)
    a = rng.integers(-9, 10, (16, 16))
    b = np.zeros((16, 16), dtype=np.int64)
    b[:, [3, 12]] = rng.integers(-2, 3, (16, 2))
    truth = naive_multiply(a, b).data
    t = int(np.count_nonzero(truth))
    res = multiply_output_sensitive(a, b, t)
    assert np.array_equal(res.product.data, truth)
    assert seen["searches"] == t


def test_batched_children_second_prime_pass(monkeypatch):
    # a delta equal to the first basis prime vanishes in the first pass
    seen = _check_each_search(monkeypatch)
    rng = seeded_rng(51)
    a = rng.integers(-9, 10, (12, 12))
    b = rng.integers(-9, 10, (12, 12))
    c = naive_multiply(a, b).data
    p1 = build_crt_basis(16, augment(a, b, c).magnitude_bound()).fields[0].p
    bad = c.copy()
    bad[3, 4] += 2
    bad[9, 10] += p1
    res = correct_product(a, b, bad, 2)
    assert np.array_equal(res.product.data, c)
    assert res.prime_passes == 2 and seen["searches"] == 2


def test_batched_step_memory_is_bounded():
    # one step at full granularity for the side-64 children of a 128 x 128
    # instance, K = 256 inner indices: the (2K x count) kernel output alone
    # would be about 33 MiB unblocked
    rng = seeded_rng(52)
    n = 128
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = rng.integers(-99, 100, (n, n))
    pair = augment(a, b, c)
    ctx = build_crt_basis(n, pair.magnitude_bound()).fields[0]
    engine = CorrectionEngine(pair, n, ctx, {"evaluations": 0})
    count = 64 * 64
    tracemalloc.start()
    try:
        vals = engine.scratch_values(engine.root, 0, count, grid=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == (2, 2, count)
    assert engine.stats["evaluations"] == 4 * count * (n + 64)
    assert peak < 16 << 20, peak
