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
    power_sequence,
    seeded_rng,
    verify_product,
)
from matverify import poly
import matverify.correct as correct_mod
import matverify.verify as verify_mod
from matverify.correct import CorrectionEngine
from matverify.verify import FingerprintRep, all_zeroes_test, eval_fingerprint_progression
from matverify.matrix import SubmatrixId, augment, field_form

from helpers import plant_errors

ENGINES = ("prony", "quadtree")


def contains_block(outer, inner) -> bool:
    return (
        outer.i_start <= inner.i_start
        and inner.i_start + inner.side <= outer.i_start + outer.side
        and outer.j_start <= inner.j_start
        and inner.j_start + inner.side <= outer.j_start + outer.side
    )


def test_osmm_identity_golden():
    eye = IntMatrix(np.eye(8, dtype=np.int64))
    for engine in ENGINES:
        res = multiply_output_sensitive(eye, eye, 8, engine=engine)
        assert np.array_equal(res.product.data, np.eye(8, dtype=np.int64))
        assert res.correction_count == 8 and res.engine == engine
        assert [(i, j) for i, j, _, _ in res.corrections] == [(k, k) for k in range(8)]


def test_find_order_prefers_first_child():
    eye = IntMatrix(np.eye(2, dtype=np.int64))
    res = multiply_output_sensitive(eye, eye, 4, engine="quadtree")
    assert res.corrections[0][:2] == (0, 0)


def test_osmm_zero_product():
    zero = IntMatrix(np.zeros((4, 4), dtype=np.int64))
    for engine in ENGINES:
        res = multiply_output_sensitive(zero, zero, 1, engine=engine)
        assert not res.product.data.any()
        assert res.correction_count == 0


def test_osmm_cancelling_product():
    # dense factors, sparse product: one nonzero entry from cancellation
    a = np.array([[1, 1], [1, -1]], dtype=np.int64)
    b = np.array([[1, 1], [-1, 1]], dtype=np.int64)
    for engine in ENGINES:
        res = multiply_output_sensitive(a, b, 2, engine=engine)
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
            for engine in ENGINES:
                res = correct_product(a, b, bad, t, engine=engine)
                assert np.array_equal(res.product.data, c)
                assert res.correction_count == z
                assert all(0 <= i < n and 0 <= j < n for i, j, _, _ in res.corrections)


def test_correct_does_not_mutate_input():
    rng = seeded_rng(42)
    a = rng.integers(-9, 10, (4, 4))
    b = rng.integers(-9, 10, (4, 4))
    bad = plant_errors(naive_multiply(a, b).data, 3, rng)
    keep = [x.copy() for x in (a, b, bad)]
    for engine in ENGINES:
        correct_product(a, b, bad, 3, engine=engine)
        assert all(np.array_equal(x, y) for x, y in zip((a, b, bad), keep))


def test_promise_violation_raises_before_overrun():
    rng = seeded_rng(43)
    a = rng.integers(-9, 10, (8, 8))
    b = rng.integers(-9, 10, (8, 8))
    bad = plant_errors(naive_multiply(a, b).data, 5, rng)
    with pytest.raises(PromiseViolationError) as err:
        correct_product(a, b, bad, 4, engine="quadtree")
    assert err.value.corrections == 4
    assert err.value.position is not None


def test_promise_violation_t_zero():
    eye = IntMatrix(np.eye(2, dtype=np.int64))
    zero = IntMatrix(np.zeros((2, 2), dtype=np.int64))
    for engine in ENGINES:
        res = correct_product(eye, eye, naive_multiply(eye, eye), 0, engine=engine)
        assert res.correction_count == 0
        with pytest.raises(PromiseViolationError):
            correct_product(eye, eye, zero, 0, engine=engine)


def test_multi_prime_blind_spot():
    # AB - C = 5 at one entry; the first basis prime is 5, so the field
    # view of pass one is clean and the integer sweep must force pass two
    a = IntMatrix(np.array([[1, 1], [0, 0]]))
    b = IntMatrix(np.array([[2, 0], [3, 0]]))
    zero = IntMatrix(np.zeros((2, 2), dtype=np.int64))
    basis = build_crt_basis(2, augment(a, b, zero).magnitude_bound())
    assert [f.p for f in basis.fields][0] == 5
    for engine in ENGINES:
        res = correct_product(a, b, zero, 1, engine=engine)
        assert res.product.data.tolist() == [[5, 0], [0, 0]]
        assert res.prime_passes == 2


def test_third_prime_pass():
    # deltas of p1*p2 and -2*p1*p2 vanish mod the first two basis primes,
    # so two passes and two integer sweeps go by before the third prime
    # finds them
    rng = seeded_rng(49)
    n = 8
    a = rng.integers(-(1 << 20), (1 << 20) + 1, (n, n))
    b = rng.integers(-(1 << 20), (1 << 20) + 1, (n, n))
    c = naive_multiply(a, b).data
    primes = [f.p for f in build_crt_basis(n, augment(a, b, c).magnitude_bound()).fields]
    assert primes[:3] == [67, 71, 73] and len(primes) == 8
    bad = c.copy()
    bad[1, 6] += primes[0] * primes[1]
    bad[5, 2] -= 2 * primes[0] * primes[1]
    for engine in ENGINES:
        res = correct_product(a, b, bad, 2, engine=engine)
        assert np.array_equal(res.product.data, c)
        assert res.correction_count == 2
        assert res.prime_passes == 3


def test_correction_on_adversarial_inputs_within_promise():
    # at most t wrong entries: the exact product and one correction per
    # wrong entry, with verify_product agreeing before and after
    rng = seeded_rng(53)
    cap = (1 << 40) - 1

    def small(n):
        return rng.integers(-9, 10, (n, n))

    cases = []   # (a, b, {(i, j): delta}, t)
    for delta in (0, 5, -7, cap):
        cases.append((small(1), small(1), {(0, 0): delta}, 1))
    n = 33
    for cells in ([(5, j) for j in range(n)], [(i, 7) for i in range(n)],
                  [(k, k) for k in range(n)],
                  [(i, j) for i in range(5) for j in range(5)]):
        deltas = rng.integers(1, 10, len(cells)) * rng.choice((-1, 1), len(cells))
        cases.append((small(n), small(n), dict(zip(cells, deltas.tolist())), n))
    for n in (3, 8, 17):
        a, b = (cap * rng.choice((-1, 1), (n, n)) for _ in range(2))
        cells = rng.choice(n * n, size=2, replace=False)
        cases.append((a, b, {divmod(int(e), n): cap for e in cells}, 2))
    a = small(6).astype(object) * (1 << 63)
    cases.append((a, small(6), {(2, 3): 1 << 70}, 1))
    # 67, 71 and 73 are the first basis primes at n = 8
    a = rng.integers(-(1 << 20), (1 << 20) + 1, (8, 8))
    b = rng.integers(-(1 << 20), (1 << 20) + 1, (8, 8))
    cases.append((a, b, {(1, 6): 67 * 71, (5, 2): -67 * 71 * 73}, 2))

    for a, b, deltas, t in cases:
        truth = a.astype(object).dot(b.astype(object))
        c = truth.copy()
        for (i, j), d in deltas.items():
            c[i, j] += d
        wrong = sum(1 for d in deltas.values() if d != 0)
        for engine in ENGINES:
            res = correct_product(a, b, c, t, engine=engine)
            assert res.product.data.tolist() == truth.tolist()
            assert res.correction_count == wrong
        assert verify_product(a, b, c, t) == (wrong == 0)
        assert verify_product(a, b, res.product, t)


def test_single_error_never_doubles_granularity():
    # one wrong entry: the first granularity guess suffices at every level
    rng = seeded_rng(44)
    a = rng.integers(-9, 10, (8, 8))
    b = rng.integers(-9, 10, (8, 8))
    bad = naive_multiply(a, b).data.copy()
    bad[2, 6] += 3
    res = correct_product(a, b, bad, 1, engine="quadtree")
    assert res.correction_count == 1
    for s, tau in res.granularity_map.items():
        assert tau <= s.side


def test_granularity_obeys_sparsity_bound():
    rng = seeded_rng(45)
    cases = []
    for _ in range(20):
        n = int(rng.integers(2, 17))
        z = int(rng.integers(0, n + 1))
        a = rng.integers(-9, 10, (n, n))
        b = rng.integers(-9, 10, (n, n))
        c = naive_multiply(a, b).data
        cases.append((a, b, c, plant_errors(c, z, rng), max(z, 1)))
    # a doubling: at n = 8, p1 = 67 and omega = 2. The 9 balanced
    # coefficients of prod_{u<8} (x - 2^u) mod 67, placed at the local
    # exponents e = i + 4j of block (0,0,4), make that child's first 8
    # values vanish, so the root's tau doubles to 16 <= max(8, 2 * 9)
    coeffs = [1]
    for u in range(8):
        coeffs = [(hi - pow(2, u, 67) * lo) % 67
                  for hi, lo in zip([0] + coeffs, coeffs + [0])]
    a = rng.integers(-9, 10, (8, 8))
    b = rng.integers(-9, 10, (8, 8))
    c = naive_multiply(a, b).data
    bad = c.copy()
    for e, coeff in enumerate(coeffs):
        bad[e % 4, e // 4] += coeff if coeff <= 33 else coeff - 67
    cases.append((a, b, c, bad, 9))
    for a, b, c, bad, t in cases:
        n = len(a)
        res = correct_product(a, b, bad, t, engine="quadtree")
        assert np.array_equal(res.product.data, c)
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
    assert res.granularity_map[SubmatrixId(0, 0, 8)] == 16


def test_cache_coherence_and_untouched_blocks(monkeypatch):
    rng = seeded_rng(46)
    real_apply_write = CorrectionEngine.apply_write

    def apply_write(engine, i, j, old, new):
        snapshots = {s: stored.copy() for s, stored in engine.vals.items()
                     if not s.contains(i, j)}
        real_apply_write(engine, i, j, old, new)
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

    monkeypatch.setattr(CorrectionEngine, "apply_write", apply_write)
    for _ in range(6):
        n = int(rng.integers(2, 13))
        z = int(rng.integers(1, min(n * n, 2 * n) + 1))
        a = rng.integers(-9, 10, (n, n))
        b = rng.integers(-9, 10, (n, n))
        bad = plant_errors(naive_multiply(a, b).data, z, rng)
        res = correct_product(a, b, bad, z, engine="quadtree")
        assert res.correction_count == z


def test_trace_stream(tmp_path):
    rng = seeded_rng(47)
    a = rng.integers(-9, 10, (4, 4))
    b = rng.integers(-9, 10, (4, 4))
    bad = plant_errors(naive_multiply(a, b).data, 2, rng)
    path = tmp_path / "trace.txt"
    for engine, keys in (("quadtree", ("prime=", "iter=", "sub=", "tau=", "nu=", "pos=")),
                         ("prony", ("prime=", "iter=", "L=", "pos="))):
        with open(path, "w") as fh:
            correct_product(a, b, bad, 2, engine=engine, trace=fh)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert [key in line for key in keys] == [True] * len(keys)


def test_input_validation():
    rng = seeded_rng(48)
    a = rng.integers(-9, 10, (4, 4))
    b = rng.integers(-9, 10, (4, 3))
    with pytest.raises(UsageError):
        multiply_output_sensitive(a, b, 1)
    sq = rng.integers(-9, 10, (4, 4))
    with pytest.raises(UsageError):
        correct_product(a, sq, naive_multiply(a, sq), -1)
    with pytest.raises(UsageError):
        correct_product(sq, sq, naive_multiply(sq, sq), 1, engine="dense")


def test_correction_golden_counts_and_trace():
    # n = 12 pads to 16; the delta 257 vanishes mod the first prime, so the
    # integer sweep forces a second pass that finds it mod 263. Each pass's
    # root evaluates its prime at the sweep's 2t = 12 points over 24 live
    # inner indices, 288 evaluations each. The sweep after the first pass
    # ends at the all-ones probe (257 != 0); the one after the second reads
    # both primes' values from the table, with no fingerprint evaluations
    rng = seeded_rng(47)
    a = rng.integers(-9, 10, (12, 12))
    b = rng.integers(-9, 10, (12, 12))
    bad = naive_multiply(a, b).data.copy()
    for i, j, d in ((0, 0, 3), (0, 1, -2), (1, 0, 5), (1, 1, 1), (2, 3, -4),
                    (10, 11, 257)):
        bad[i, j] += d
    trace = io.StringIO()
    res = correct_product(a, b, bad, 6, engine="quadtree", trace=trace)
    assert (res.evaluations, res.max_granularity, res.prime_passes) == (4244, 16, 2)
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


@pytest.mark.parametrize("n, z, t, kernel", [(12, 6, 6, "gemm"), (40, 9, 100, "mixed")])
def test_both_evaluators_give_one_correction_run(monkeypatch, n, z, t, kernel):
    # the same run with every fingerprint on the chirp: products, writes,
    # granularity, passes, evaluation counts and trace all agree. At n = 40,
    # padded to 64, t = 100 puts the root's points past the GEMM bound of
    # K_GEMM * bit_length(64) = 84
    rng = seeded_rng(53 + n)
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = naive_multiply(a, b).data
    bad = plant_errors(c, z, rng)
    runs = []
    for k_gemm in (verify_mod.K_GEMM, 0):
        monkeypatch.setattr(verify_mod, "K_GEMM", k_gemm)
        trace = io.StringIO()
        res = correct_product(a, b, bad, t, engine="quadtree", trace=trace)
        assert np.array_equal(res.product.data, c)
        runs.append(res)
        runs.append(trace.getvalue())
    fast, fast_trace, chirp, chirp_trace = runs
    assert (fast.kernel, chirp.kernel) == (kernel, "chirp")
    assert fast_trace == chirp_trace
    assert (fast.corrections, fast.evaluations, fast.granularity_map, fast.prime_passes) \
        == (chirp.corrections, chirp.evaluations, chirp.granularity_map, chirp.prime_passes)


def test_osmm_golden_counts_and_trace():
    # two nonzero columns of B: AB has 16 nonzeroes in columns 1 and 6. The
    # root evaluates the sweep's 2t = 32 points mod 67 over the 8 live inner
    # indices of (A | 0), 256 evaluations; the sweep reads those values,
    # shifted by the writes, and evaluates the second basis prime at 32
    # points over 10 live inner indices, 320 more
    rng = seeded_rng(48)
    a = rng.integers(-9, 10, (8, 8))
    b = np.zeros((8, 8), dtype=np.int64)
    b[:, [1, 6]] = rng.integers(-2, 3, (8, 2))
    trace = io.StringIO()
    res = multiply_output_sensitive(a, b, 16, engine="quadtree", trace=trace)
    assert (res.evaluations, res.max_granularity, res.prime_passes) == (1194, 8, 1)
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
        for blk, count in grown.items():
            if not count:
                continue
            i0, j0, side = blk.i_start, blk.j_start, blk.side
            rows = engine.ap[i0 : i0 + side].any(axis=0)
            cols = engine.bp[:, j0 : j0 + side].any(axis=1)
            # C's columns that are nonzero mod p over the block rows, each
            # where the -I row of (B ; -I) would count
            c = engine.pair.c
            block, _ = field_form(c.data[i0 : i0 + side, j0 : j0 + side],
                                  engine.ctx.p, c.max_abs)
            c_cols = block.any(axis=0)
            want += count * int(np.count_nonzero(rows & cols) + np.count_nonzero(c_cols))
            # a live column of C reaches one column of the block, so one
            # column half of its parent
            seen["one_half"] += int(np.count_nonzero(c_cols))
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
    # every batched step of the chirp, which then runs at every count, into
    # several row blocks
    if chunk_points is not None:
        monkeypatch.setattr(poly, "_CHUNK_POINTS", chunk_points)
        monkeypatch.setattr(verify_mod, "K_GEMM", 0)
    seen = _check_each_search(monkeypatch)
    rng = seeded_rng(49 + n)
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = naive_multiply(a, b).data
    res = correct_product(a, b, plant_errors(c, z, rng), z, engine="quadtree")
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
    res = multiply_output_sensitive(a, b, t, engine="quadtree")
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
    res = correct_product(a, b, bad, 2, engine="quadtree")
    assert np.array_equal(res.product.data, c)
    assert res.prime_passes == 2 and seen["searches"] == 2


def test_batched_shift_matches_per_write_shifts_in_bounded_memory(monkeypatch):
    # 300 writes into a 128 x 128 pair, 4096 values: the Vandermonde rows of
    # all writes at once would take about 9.4 MiB per buffer
    rng = seeded_rng(54)
    m, k = 128, 4096
    ctx = build_crt_basis(m, 1 << 40).fields[0]
    p = ctx.p
    values = rng.integers(0, p, k)
    writes = [(int(e) % m, int(e) // m, int(old), int(old) + int(d))
              for e, old, d in zip(rng.choice(m * m, 300, replace=False),
                                   rng.integers(-99, 100, 300),
                                   rng.integers(1, 1 << 30, 300))]
    writes[7] = (3, 9, -(1 << 70), 1 << 65)           # object-size entries
    one_by_one = values.copy()
    for i, j, old, new in writes:
        row = power_sequence(pow(ctx.omega, i + m * j, p), k, p)
        one_by_one = (one_by_one - (new - old) % p * row) % p

    chunks = []
    real_power_sequence = correct_mod.power_sequence

    def counted(base, count, q):
        chunks.append(np.shape(base))
        return real_power_sequence(base, count, q)

    monkeypatch.setattr(correct_mod, "power_sequence", counted)
    monkeypatch.setattr(verify_mod, "_GEMM_CELLS", 16 * k)
    tracemalloc.start()
    try:
        shifted = correct_mod.shift_values(values, writes, ctx, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunks == [(16,)] * 18 + [(12,)]
    assert shifted.tolist() == one_by_one.tolist()
    assert peak < 3 << 20, peak
    monkeypatch.undo()
    assert correct_mod.shift_values(values, writes, ctx, m).tolist() == one_by_one.tolist()


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


def test_one_prime_at_n_128_entries_9():
    # the 2-norm bound of +-9 factors at n = 128 stays below (n^2 + 1) / 2,
    # so verification and the integer sweep run on one prime
    rng = seeded_rng(71)
    n = 128
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = naive_multiply(a, b).data
    assert len(build_crt_basis(n, augment(a, b, c).magnitude_bound()).fields) == 1
    stats = {}
    assert verify_product(a, b, c, n, stats=stats) and stats["primes"] == 1
    bad = plant_errors(c, 20, rng)
    for engine in ENGINES:
        res = correct_product(a, b, bad, 32, engine=engine)
        assert np.array_equal(res.product.data, c)
        assert res.prime_passes == 1


def test_largest_error_the_one_prime_basis_covers():
    # C[i, j] raised until the bound sits at (n^2 + 1 - 1) / 2, the most
    # one prime covers: that single error is refuted mod the prime and
    # corrected in one pass; one more unit takes a second prime
    rng = seeded_rng(72)
    n = 32
    a = rng.integers(-3, 4, (n, n))
    b = rng.integers(-3, 4, (n, n))
    c = naive_multiply(a, b).data
    base = n * n + 1
    cs = augment(a, b, np.zeros_like(c)).magnitude_bound()
    bad = c.copy()
    bad[7, 19] = (base - 1) // 2 - cs
    assert bad[7, 19] > np.abs(c).max()
    (ctx,) = build_crt_basis(n, augment(a, b, bad).magnitude_bound()).fields
    delta = int(c[7, 19]) - int(bad[7, 19])
    assert abs(delta) < ctx.p and delta % ctx.p
    ap, bp, cp, bound = augment(a, b, bad).reduced(ctx)
    rep = FingerprintRep(ctx, n, ap.T, bp, cp, bound)
    assert not all_zeroes_test(rep, None, 1, ctx).all_zero
    assert not verify_product(a, b, bad, 1)
    for engine in ENGINES:
        res = correct_product(a, b, bad, 1, engine=engine)
        assert np.array_equal(res.product.data, c)
        assert res.corrections == [(7, 19, int(bad[7, 19]), int(c[7, 19]))]
        assert res.prime_passes == 1
    bad[7, 19] += 1
    assert len(build_crt_basis(n, augment(a, b, bad).magnitude_bound()).fields) == 2


def _primes_evaluated(monkeypatch) -> list:
    """Log the prime of every fingerprint evaluation, by the pass's search
    and root (scratch_values) and by the sweep's zero test."""
    seen = []
    real = verify_mod.eval_fingerprint_progression

    def logged(rep, *args, **kwargs):
        seen.append(rep.ctx.p)
        return real(rep, *args, **kwargs)

    monkeypatch.setattr(verify_mod, "eval_fingerprint_progression", logged)
    monkeypatch.setattr(correct_mod, "eval_fingerprint_progression", logged)
    return seen


def test_osmm_from_zero_as_writes_raise_the_bound(monkeypatch):
    # C starts at 0, so the basis covers the 2-norm bound alone; each
    # written product raises max|C|, and with it the bound of AB - C to two
    # primes. Every write is an exact product, so |AB - C| stays within the
    # run's first bound: the sweep keeps the run's basis and evaluates no
    # second prime. The result stays exact
    seen = _primes_evaluated(monkeypatch)
    n = 128
    a = np.zeros((n, n), dtype=np.int64)
    b = np.zeros((n, n), dtype=np.int64)
    a[5], a[90, :64] = 7, -7
    b[:, 17], b[:64, 100] = 7, 7
    truth = naive_multiply(a, b)
    assert np.count_nonzero(truth.data) == 4 and truth.max_abs == n * 49
    zero = IntMatrix(np.zeros((n, n), dtype=np.int64))
    (ctx,) = build_crt_basis(n, augment(a, b, zero).magnitude_bound()).fields
    assert len(build_crt_basis(n, augment(a, b, truth).magnitude_bound()).fields) == 2
    for engine in ENGINES:
        seen.clear()
        res = multiply_output_sensitive(a, b, 4, engine=engine)
        assert res.product == truth
        assert res.correction_count == 4 and res.prime_passes == 1
        assert seen and set(seen) == {ctx.p}, engine
    # the sweep mod a second prime took 1,040 of prony's 2,064 before
    assert multiply_output_sensitive(a, b, 4).evaluations == 1024


def test_prony_extends_a_sweeps_values_when_2t_exceeds_m2(monkeypatch):
    # n = 2, t = 3: the sweep holds min(2t, m^2) = 4 values and a prony
    # pass needs min(2t, 2m^2) = 6. C is wrong by +p1 and -p1, so the
    # first pass mod p1 = 5 sees nothing, the sweep evaluates 7 at 4
    # points, and the second pass evaluates 7 at exponents 4 and 5 only:
    # 80 evaluations, against 96 when it started again from exponent 0
    starts = []
    real = CorrectionEngine.scratch_values

    def scratch(self, s, lo, hi, grid=1):
        starts.append((self.ctx.p, lo, hi))
        return real(self, s, lo, hi, grid)

    monkeypatch.setattr(CorrectionEngine, "scratch_values", scratch)
    rng = seeded_rng(0)
    a, b = rng.integers(-9, 10, (2, 2)), rng.integers(-9, 10, (2, 2))
    truth = naive_multiply(a, b).data
    p1, p2 = (f.p for f in build_crt_basis(2, augment(a, b, truth).magnitude_bound())
              .fields[:2])
    assert (p1, p2) == (5, 7)
    c = truth.copy()
    c[0, 1] += p1
    c[1, 0] -= p1
    res = correct_product(a, b, c, 3)
    assert np.array_equal(res.product.data, truth) and res.prime_passes == 2
    assert starts == [(p1, 0, 6), (p2, 4, 6)]
    assert res.evaluations == 80


# -- C's blocks in field_form at the edges of the rule -------------------------


def _residue_rep_values(pair, ctx, s, lo, hi, grid, stats):
    """Values of block s of the materialized (A | C), (B ; -I), every entry
    reduced into [0, p) first: the form the rule passes only past p."""
    p = ctx.p
    left, right = pair.materialize()
    rows = slice(s.i_start, s.i_start + s.side)
    cols = slice(s.j_start, s.j_start + s.side)
    lp = np.array((left[rows].T % p).tolist(), dtype=np.int64)
    rp = np.array((right[:, cols] % p).tolist(), dtype=np.int64)
    rep = FingerprintRep(ctx, s.side, lp, rp, None, p - 1)
    return eval_fingerprint_progression(rep, lo, hi - lo, stats, grid=grid)


def _field_form_cases():
    """(name, a, b, c, t) at m = 8, whose first prime is 67."""
    rng = seeded_rng(211)
    a = rng.integers(-1, 2, (8, 8))
    b = rng.integers(-1, 2, (8, 8))
    truth = naive_multiply(a, b).data
    assert np.abs(truth).max() < 67
    cases = []
    for name, v in (("p-1", 66), ("p", 67), ("p+1", 68), ("-p", -67)):
        c = truth.copy()
        c[1, 2], c[6, 3] = v, truth[6, 3] + 1
        cases.append((name, a, b, c, 2))
    # C starts below p; writing 1600 + ... lifts max|C| past it mid-run
    big_a, big_b = a.copy(), b.copy()
    big_a[0, 0] = big_b[0, 0] = 40
    c = naive_multiply(big_a, big_b).data.copy()
    assert abs(c[0, 0]) > 67 and np.abs(c[1:]).max() < 67 and np.abs(c[:, 1:]).max() < 67
    c[0, 0], c[4, 5] = 0, c[4, 5] - 2
    cases.append(("lifted", big_a, big_b, c, 2))
    # a write of about 2^80 moves C to object dtype
    huge_a, huge_b = a.copy(), b.copy()
    huge_a[3, 0] = huge_b[0, 7] = (1 << 40) - 1
    c = naive_multiply(huge_a, huge_b).data.copy()
    assert abs(c[3, 7]) >= 1 << 62
    c[3, 7], c[6, 7] = 0, c[6, 7] + 3
    cases.append(("object", huge_a, huge_b, c.astype(np.int64), 2))
    return cases


@pytest.mark.parametrize("case", range(6), ids=("p-1", "p", "p+1", "-p", "lifted", "object"))
@pytest.mark.parametrize("k_gemm", [verify_mod.K_GEMM, 0], ids=("gemm", "chirp"))
@pytest.mark.parametrize("engine", ENGINES)
def test_c_blocks_in_field_form_match_the_residues(monkeypatch, engine, k_gemm, case):
    # every block evaluation, and every sweep's values, against the same
    # block of the materialized pair reduced into [0, p): equal values and
    # equal evaluation counts, whichever form C's block took
    monkeypatch.setattr(verify_mod, "K_GEMM", k_gemm)
    name, a, b, c, t = _field_form_cases()[case]
    forms = set()
    real_scratch = CorrectionEngine.scratch_values
    real_verify = correct_mod.verify_product

    def scratch(self, s, lo, hi, grid=1):
        before = self.stats["evaluations"]
        out = real_scratch(self, s, lo, hi, grid)
        want_stats = {}
        want = _residue_rep_values(self.pair, self.ctx, s, lo, hi, grid, want_stats)
        assert np.array_equal(out, want), (s, lo, hi)
        assert self.stats["evaluations"] - before == want_stats["evaluations"]
        c_now = self.pair.c
        forms.add((c_now.data.dtype == object, c_now.max_abs < self.ctx.p))
        return out

    def sweep(a2, b2, c2, t2, stats=None, *, known=None, basis=None):
        out = real_verify(a2, b2, c2, t2, stats, known=known, basis=basis)
        pair = augment(a2, b2, c2)
        for ctx in basis.fields:
            if ctx.p in known:
                vals = known[ctx.p]
                want = _residue_rep_values(pair, ctx, SubmatrixId(0, 0, pair.side),
                                           0, len(vals), 1, {})
                assert np.array_equal(vals, want), ctx.p
        return out

    monkeypatch.setattr(CorrectionEngine, "scratch_values", scratch)
    monkeypatch.setattr(correct_mod, "verify_product", sweep)
    res = correct_product(a, b, c, t, engine=engine)
    assert np.array_equal(res.product.data, naive_multiply(a, b).data)
    assert forms
    if engine == "quadtree":
        # the search reads C after its writes: in the other form once a
        # write lifts max|C| to p, and as objects past 2^62
        expected = {"p-1": {(False, True)}, "lifted": {(False, True), (False, False)},
                    "object": {(False, False), (True, False)}}
        assert forms == expected.get(name, {(False, False)}), forms
