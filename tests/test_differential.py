"""Differential tests of both correction engines against the dense product
and against each other, on seeded numpy fuzz and on hypothesis-drawn
instances.

What must hold, for a promise of t wrong entries:
- at most t wrong: the exact product, and the same set of corrections from
  both engines
- t < k <= 2t wrong: PromiseViolationError from both engines
- more than 2t wrong: nothing is guaranteed, and nothing is asserted
  beyond the run ending in a result or a PromiseViolationError
"""

import io
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matverify import (
    FieldCtx,
    PromiseViolationError,
    ResourceLimitError,
    augment,
    build_crt_basis,
    correct_product,
    find_generator,
    multiply_output_sensitive,
    naive_multiply,
    seeded_rng,
    verify_product,
)
from matverify import poly
import matverify.correct as correct_mod
import matverify.verify as verify_mod
from matverify.correct import berlekamp_massey

from helpers import oracle_berlekamp_massey, oracle_eval

ENGINES = ("prony", "quadtree")


def _truth(a, b) -> np.ndarray:
    return a.astype(object).dot(b.astype(object))


def _with_errors(truth, cells, deltas) -> np.ndarray:
    c = truth.copy()
    for (i, j), d in zip(cells, deltas):
        c[i, j] += d
    return c


def _agree_within_promise(a, b, c, t, truth):
    """Both engines return the exact product with one correction per
    wrong entry, and the same set of corrections."""
    wrong = int(np.count_nonzero(truth != c))
    sets = []
    for engine in ENGINES:
        res = correct_product(a, b, c, t, engine=engine)
        assert res.product.data.tolist() == truth.tolist(), engine
        assert res.correction_count == wrong, engine
        sets.append(sorted(res.corrections))
    assert sets[0] == sets[1]


def _refused(a, b, c, t):
    for engine in ENGINES:
        with pytest.raises(PromiseViolationError):
            correct_product(a, b, c, t, engine=engine)


def _random_cells(rng, n, k):
    return [divmod(int(e), n) for e in rng.choice(n * n, size=k, replace=False)]


def _random_deltas(rng, k, unit=1):
    return (unit * rng.integers(1, 10, k) * rng.choice((-1, 1), k)).tolist()


# -- Berlekamp-Massey against brute force ------------------------------------


def _shortest_recurrence(seq, p) -> int:
    """Least L such that some c[1..L] gives seq[u] = -sum c[i] seq[u - i]
    for all L <= u < len(seq), by trying every coefficient vector."""
    for length in range(len(seq) + 1):
        for tail in itertools.product(range(p), repeat=length):
            c = (1,) + tail
            if all(sum(c[i] * seq[u - i] for i in range(length + 1)) % p == 0
                   for u in range(length, len(seq))):
                return length
    raise AssertionError("unreachable: L = len(seq) always works")


def test_berlekamp_massey_is_the_shortest_recurrence():
    rng = seeded_rng(71)
    for p in (2, 3, 5):
        for size in range(7):
            for _ in range(25):
                seq = rng.integers(0, p, size)
                c = berlekamp_massey(seq.astype(np.int64), p)
                length = len(c) - 1
                assert c[0] == 1 and (c >= 0).all() and (c < p).all()
                for u in range(length, size):
                    assert int(c @ seq[u - length : u + 1][::-1]) % p == 0, (seq, c)
                assert length == _shortest_recurrence(seq.tolist(), p), (seq, c)


def _power_sum(coeffs, roots, k: int, p: int) -> np.ndarray:
    """sum_e coeffs[e] * roots[e]^u mod p for u < k, by running powers."""
    coeffs, cur, out = [int(d) for d in coeffs], [1] * len(roots), []
    for _ in range(k):
        out.append(sum(d * x for d, x in zip(coeffs, cur)) % p)
        cur = [x * int(r) % p for x, r in zip(cur, roots)]
    return np.array(out, dtype=np.int64)


def test_berlekamp_massey_finds_the_error_locator():
    # values of sum_e d_e * (w^e)^u at k >= 2r points give prod_e (1 - w^e x):
    # 2^17 values (the _BM_VALUES cap) of a 4-term sum at a CRT prime run
    # long doubling windows; r = 64 at k = 128 is the correct workload's
    # shape; at 2^31 - 1 only L <= 1 fits int64, so the products of L = 5
    # are reduced before they are summed
    rng = seeded_rng(72)
    cases = [(257, 3, r, 2 * r) for r in (1, 2, 5, 9)] + [
        (16411, 3, 4, correct_mod._BM_VALUES),
        (16411, 3, 64, 128),
        ((1 << 31) - 1, 7, 5, 100),
    ]
    for p, w, r, k in cases:   # w generates F_p^*, so the w^e are distinct
        exps = rng.choice(200, size=r, replace=False)
        roots = [pow(w, int(e), p) for e in exps]
        values = _power_sum(rng.integers(1, p, r), roots, k, p)
        want = [1]
        for root in roots:     # multiply by (1 - w^e x)
            want = [(x - root * y) % p for x, y in zip(want + [0], [0] + want)]
        assert berlekamp_massey(values, p).tolist() == want, (p, r, k)


def test_berlekamp_massey_matches_the_stepwise_oracle():
    # the scan over zero discrepancies returns what one step per value does,
    # on both sides of the int64 budget (2 products at 2^31 - 1): uniform
    # values; L-sparse power sums, whose tails are zero runs; the same with
    # one value past 2L moved, so a run ends and the scan resumes; dense
    # power sums of k/2 terms, whose steps nearly all have a nonzero
    # discrepancy (the osmm shape); all zeros; and zeros up to one last
    # nonzero value
    rng = seeded_rng(73)
    for p in (2, 3, 17, 4099, 16411, 147457, (1 << 31) - 1):
        for k in range(161):
            size = int(rng.integers(1, 13))
            sparse = _power_sum(rng.integers(1, p, size), rng.integers(1, p, size), k, p)
            dense = _power_sum(rng.integers(1, p, k // 2), rng.integers(1, p, k // 2), k, p)
            moved = sparse.copy()
            if k > 2 * size:
                u = int(rng.integers(2 * size, k))
                moved[u] = (moved[u] + int(rng.integers(1, p))) % p
            last = np.zeros(k, dtype=np.int64)
            last[-1:] = rng.integers(1, p)
            for values in (rng.integers(0, p, k), sparse, moved, dense,
                           np.zeros(k, dtype=np.int64), last):
                got = berlekamp_massey(values, p)
                want = oracle_berlekamp_massey(values, p)
                assert got.dtype == want.dtype and np.array_equal(got, want), (
                    p, values.tolist())


def test_berlekamp_massey_only_reads_its_values():
    # PronyEngine.locate passes a slice of known[p], which the sweep later
    # shifts, so Berlekamp-Massey must leave its values as they are
    rng = seeded_rng(74)
    for p in (16411, (1 << 31) - 1):
        values = _power_sum(rng.integers(1, p, 5), rng.integers(1, p, 5), 128, p)
        values[100] = (values[100] + 1) % p
        before = values.copy()
        values.flags.writeable = False
        berlekamp_massey(values, p)
        assert np.array_equal(values, before)


def _pinned(run) -> tuple:
    """Every field of the CorrectionResult run(trace) returns and its
    trace, or the type, message and fields of the error it raises."""
    trace = io.StringIO()
    try:
        res = run(trace)
    except (PromiseViolationError, ResourceLimitError) as exc:
        return type(exc), str(exc), vars(exc), trace.getvalue()
    fields = dict(vars(res), product=res.product.data.tolist())
    return fields, trace.getvalue()


def test_prony_runs_are_pinned_to_the_stepwise_oracle(monkeypatch):
    # seeded m = 128, t = 64 instances and a cancelling output-sensitive
    # product give the same result, trace and error as with one step per
    # value; the quadtree engine never calls Berlekamp-Massey
    rng = seeded_rng(75)
    m, t = 128, 64
    runs = {}
    a, b = rng.integers(-9, 10, (2, m, m))
    truth = a @ b
    for name, k in (("spread", 8), ("t_plus_1", t + 1)):
        c = _with_errors(truth, _random_cells(rng, m, k), _random_deltas(rng, k))
        runs[name] = lambda trace, c=c: correct_product(a, b, c, t, trace=trace)
    wide_a, wide_b = rng.integers(-(1 << 20), (1 << 20) + 1, (2, m, m))
    wide = wide_a @ wide_b
    p1 = build_crt_basis(m, augment(wide_a, wide_b, wide).magnitude_bound()).fields[0].p
    c_p1 = _with_errors(wide, _random_cells(rng, m, 4), _random_deltas(rng, 4, p1))
    runs["p1_multiples"] = lambda trace: correct_product(wide_a, wide_b, c_p1, t, trace=trace)
    u = rng.integers(1, 5, (64, 1))
    cancel_a, cancel_b = np.tile(u, (1, 64)), rng.integers(-4, 5, (64, 64))
    cancel_b[-1] -= cancel_b.sum(axis=0)
    cancel_b[-1, rng.choice(64, size=2, replace=False)] += 5
    runs["osmm"] = lambda trace: multiply_output_sensitive(
        cancel_a, cancel_b, int(np.count_nonzero(cancel_a @ cancel_b)), trace=trace)

    want = {}
    with monkeypatch.context() as patch:
        calls = []
        patch.setattr(correct_mod, "berlekamp_massey",
                      lambda vals, p: calls.append(p) or oracle_berlekamp_massey(vals, p))
        for name, run in runs.items():
            calls.clear()
            want[name] = _pinned(run)
            assert calls, name
    for name, run in runs.items():
        assert _pinned(run) == want[name], name
    assert want["t_plus_1"][0] is PromiseViolationError
    assert "product" in want["osmm"][0] and want["p1_multiples"][0]["prime_passes"] == 2


# -- the promise, on seeded fuzz ---------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 33])
def test_within_promise_exact_and_same_corrections(n):
    rng = seeded_rng(73 + n)
    for _ in range(4 if n == 33 else 12):
        a = rng.integers(-9, 10, (n, n))
        b = rng.integers(-9, 10, (n, n))
        truth = _truth(a, b)
        t = int(rng.integers(1, min(n * n, 2 * n) + 1))
        k = int(rng.integers(0, t + 1))
        c = _with_errors(truth, _random_cells(rng, n, k), _random_deltas(rng, k))
        _agree_within_promise(a, b, c, t, truth)


@pytest.mark.parametrize("n", [2, 3, 33])
def test_between_t_and_2t_errors_is_refused(n):
    # (n = 1 has no room for more than t >= 1 wrong entries)
    rng = seeded_rng(77 + n)
    cases = 0
    while cases < (4 if n == 33 else 12):
        t = int(rng.integers(1, min(n * n, 2 * n) + 1))
        if t >= n * n:
            continue      # no room for more than t wrong entries
        k = int(rng.integers(t + 1, min(2 * t, n * n) + 1))
        a = rng.integers(-9, 10, (n, n))
        b = rng.integers(-9, 10, (n, n))
        c = _with_errors(_truth(a, b), _random_cells(rng, n, k), _random_deltas(rng, k))
        _refused(a, b, c, t)
        cases += 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_entry_wrong_at_t_n_squared(n):
    # more than m^2 / 2 wrong entries: the locator needs all 2m^2 values
    rng = seeded_rng(81 + n)
    for _ in range(10):
        a = rng.integers(-9, 10, (n, n))
        b = rng.integers(-9, 10, (n, n))
        truth = _truth(a, b)
        cells = [(i, j) for i in range(n) for j in range(n)]
        c = _with_errors(truth, cells, _random_deltas(rng, n * n))
        _agree_within_promise(a, b, c, n * n, truth)


def test_cancelling_errors_at_n_8_are_refused():
    # t = 1 with deltas +5 and -5; t = 2 with deltas (2, 81, -83), which sum
    # to zero and vanish at omega^1 modulo both basis primes. A sweep at t
    # points passed both, and the wrong C came back with no error
    rng = seeded_rng(61)
    a = rng.integers(-9, 10, (8, 8))
    b = rng.integers(-9, 10, (8, 8))
    truth = _truth(a, b)
    pair = _with_errors(truth, [(1, 2), (6, 3)], [5, -5])
    triple = _with_errors(truth, [(0, 0), (0, 3), (2, 0)], [2, 81, -83])
    fields = build_crt_basis(8, augment(a, b, triple.astype(np.int64)).magnitude_bound()).fields
    assert [(f.p, f.omega) for f in fields] == [(67, 2), (71, 7)]
    for f in fields:    # exponents i + 8j: 0, 24 and 2
        assert (2 + 81 * pow(f.omega, 24, f.p) - 83 * pow(f.omega, 2, f.p)) % f.p == 0
    _refused(a, b, pair, 1)
    _refused(a, b, triple, 2)


def test_locator_above_t_is_refused_before_the_root_sweep(monkeypatch):
    # two wrong entries at t = 1 that cancel at omega^0: the values 0, v
    # give a locator of degree 2
    rng = seeded_rng(61)
    a = rng.integers(-9, 10, (8, 8))
    b = rng.integers(-9, 10, (8, 8))
    c = _with_errors(_truth(a, b), [(1, 2), (6, 3)], [5, -5])

    def no_sweep(self, locator):
        raise AssertionError("root sweep of a locator of degree above t")

    monkeypatch.setattr(correct_mod.PronyEngine, "roots", no_sweep)
    with pytest.raises(PromiseViolationError) as err:
        correct_product(a, b, c, 1)
    assert (err.value.corrections, err.value.position) == (0, None)


def test_more_than_2t_errors_guarantee_nothing():
    rng = seeded_rng(85)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        t = int(rng.integers(1, n))
        k = int(rng.integers(2 * t + 1, n * n + 1))
        a = rng.integers(-9, 10, (n, n))
        b = rng.integers(-9, 10, (n, n))
        c = _with_errors(_truth(a, b), _random_cells(rng, n, k), _random_deltas(rng, k))
        for engine in ENGINES:
            try:
                correct_product(a, b, c, t, engine=engine)
            except PromiseViolationError:
                pass


@pytest.mark.parametrize("units", [1, 2])
def test_deltas_that_vanish_mod_the_first_primes(units):
    # multiples of p1 (units = 1) or p1*p2 (units = 2) are invisible to the
    # first pass(es); the sweep sends them on to a later prime
    rng = seeded_rng(86 + units)
    n = 12
    a = rng.integers(-(1 << 20), (1 << 20) + 1, (n, n))
    b = rng.integers(-(1 << 20), (1 << 20) + 1, (n, n))
    truth = _truth(a, b)
    primes = [f.p for f in build_crt_basis(16, augment(a, b, truth.astype(np.int64))
                                           .magnitude_bound()).fields]
    unit = int(np.prod(primes[:units]))
    for t, k in ((4, 4), (4, 1), (6, 3)):
        cells = _random_cells(rng, n, k)
        deltas = _random_deltas(rng, k, unit)
        deltas[0] += 1 if t == 6 else 0     # one entry visible to the first prime
        c = _with_errors(truth, cells, deltas)
        for engine in ENGINES:
            res = correct_product(a, b, c, t, engine=engine)
            assert res.product.data.tolist() == truth.tolist()
            assert res.prime_passes == units + 1


def test_cancelling_output_sensitive_products():
    # every column of A is u and every column of B sums to zero except a
    # few: a dense pair whose product has few nonzero columns
    rng = seeded_rng(88)
    for n, cols in ((16, 1), (33, 2), (64, 3)):
        u = rng.integers(1, 5, (n, 1))
        a = np.tile(u, (1, n))
        b = rng.integers(-4, 5, (n, n))
        b[-1] -= b.sum(axis=0)
        b[-1, rng.choice(n, size=cols, replace=False)] += 5
        truth = naive_multiply(a, b).data
        t = int(np.count_nonzero(truth))
        sets = []
        for engine in ENGINES:
            res = multiply_output_sensitive(a, b, t, engine=engine)
            assert np.array_equal(res.product.data, truth)
            sets.append(sorted(res.corrections))
        assert sets[0] == sets[1]
        with pytest.raises(PromiseViolationError):
            multiply_output_sensitive(a, b, t - 1)


def test_prony_on_both_evaluators(monkeypatch):
    # the prony engine's values and sweep on the GEMM evaluator and on the
    # chirp give one correction run
    rng = seeded_rng(89)
    n, t = 40, 12
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    truth = _truth(a, b)
    c = _with_errors(truth, _random_cells(rng, n, t), _random_deltas(rng, t))
    runs = []
    for k_gemm in (verify_mod.K_GEMM, 0):
        monkeypatch.setattr(verify_mod, "K_GEMM", k_gemm)
        res = correct_product(a, b, c, t)
        assert res.product.data.tolist() == truth.tolist()
        runs.append((res.corrections, res.evaluations, res.prime_passes, res.kernel))
    assert runs[0][:3] == runs[1][:3]
    assert (runs[0][3], runs[1][3]) == ("gemm", "chirp")


# -- the sweep reads the prony passes' own values ------------------------------


@pytest.fixture
def sweep_watch(monkeypatch):
    """Wrap the shift helper, the sweep and both whole-pair evaluators of a
    run on either engine. Every sweep checks that the values it is handed
    for a prime are the ones the shift helper returned last for that prime,
    and that they equal a fresh evaluation of the current pair at as many
    points. The log counts each prime's whole-pair evaluations: the zero
    test's, and the root's from exponent 0; the quadtree's evaluations of
    the root's children are not counted."""
    real_scratch = correct_mod.CorrectionEngine.scratch_values
    real_shift = correct_mod.shift_values
    real_verify = correct_mod.verify_product
    real_zero_test = verify_mod.all_zeroes_test
    log = {"evaluated": Counter(), "shifted": {}, "sweeps": []}

    def scratch(self, s, lo, hi, grid=1):
        if s == self.root and lo == 0 and grid == 1:
            log["evaluated"][self.ctx.p] += 1
        return real_scratch(self, s, lo, hi, grid)

    def shift(values, writes, ctx, m):
        out = real_shift(values, writes, ctx, m)
        log["shifted"][ctx.p] = out
        return out

    def sweep(a, b, c, t, stats=None, *, known=None, basis=None):
        m = a.rows
        for q, vals in known.items():
            assert vals is log["shifted"][q]
            ctx = FieldCtx(q, find_generator(q), order_lb=m * m)
            fresh = correct_mod.CorrectionEngine(augment(a, b, c), t, ctx, {})
            assert vals.tolist() == real_scratch(fresh, fresh.root, 0, len(vals)).tolist(), q
        log["sweeps"].append(sorted(known))
        return real_verify(a, b, c, t, stats, known=known, basis=basis)

    def zero_test(left, right, t, ctx, stats=None):
        log["evaluated"][ctx.p] += 1
        return real_zero_test(left, right, t, ctx, stats)

    monkeypatch.setattr(correct_mod.CorrectionEngine, "scratch_values", scratch)
    monkeypatch.setattr(correct_mod, "shift_values", shift)
    monkeypatch.setattr(correct_mod, "verify_product", sweep)
    monkeypatch.setattr(verify_mod, "all_zeroes_test", zero_test)
    return log


def _sweep_cases():
    """(a, b, c or None for multiply_output_sensitive, t, prime passes)."""
    rng = seeded_rng(92)
    cases = []
    # multiples of p1 plus one entry visible to it: a write in each of two
    # passes, so p1's values are shifted by the second pass's writes too
    n = 12
    a = rng.integers(-(1 << 20), (1 << 20) + 1, (n, n))
    b = rng.integers(-(1 << 20), (1 << 20) + 1, (n, n))
    truth = _truth(a, b)
    p1 = build_crt_basis(16, augment(a, b, truth.astype(np.int64))
                         .magnitude_bound()).fields[0].p
    cells = _random_cells(rng, n, 3)
    cases.append((a, b, _with_errors(truth, cells, [p1 + 1, -2 * p1, 3 * p1]), 6, 2))
    n12 = a, b, truth, p1
    # t = 0 on a right C: one value per pass, read by the sweep
    a, b = rng.integers(-9, 10, (5, 5)), rng.integers(-9, 10, (5, 5))
    cases.append((a, b, _truth(a, b), 0, 1))
    # t = m^2 with every entry wrong
    a, b = rng.integers(-9, 10, (3, 3)), rng.integers(-9, 10, (3, 3))
    cells = [(i, j) for i in range(3) for j in range(3)]
    cases.append((a, b, _with_errors(_truth(a, b), cells, _random_deltas(rng, 9)), 9, 1))
    # object-dtype entries above 2^62, through the API
    a = rng.integers(-9, 10, (6, 6)).astype(object) * (1 << 63)
    b = rng.integers(-9, 10, (6, 6))
    c = _with_errors(_truth(a, b), [(2, 3), (5, 0)], [1 << 70, -(1 << 64) - 1])
    cases.append((a, b, c, 2, 1))
    # a cancelling output-sensitive product
    n = 16
    a = np.tile(rng.integers(1, 5, (n, 1)), (1, n))
    b = rng.integers(-4, 5, (n, n))
    b[-1] -= b.sum(axis=0)
    b[-1, 3] += 5
    cases.append((a, b, None, int(np.count_nonzero(naive_multiply(a, b).data)), 1))
    # +p1 and -p1: the all-ones probe cancels and p1 sees nothing, so the
    # sweep after the first pass evaluates p2, and the second pass reads
    # those values
    a, b, truth, p1 = n12
    cells = _random_cells(rng, 12, 2)
    cases.append((a, b, _with_errors(truth, cells, [p1, -p1]), 2, 2))
    return cases


_SWEEP_CASE_IDS = ("p1_multiples", "t_zero", "all_wrong", "object_above_2_62",
                   "cancelling_osmm", "p1_cancelling")


# the default engine's ids are the bare case names
@pytest.mark.parametrize("engine, case", [
    pytest.param(engine, case, id=name if engine == "prony" else f"{name}-{engine}")
    for engine in ("prony", "quadtree") for case, name in enumerate(_SWEEP_CASE_IDS)])
def test_sweep_reads_shifted_values_evaluated_once_per_prime(sweep_watch, engine, case):
    a, b, c, t, passes = _sweep_cases()[case]
    if c is None:
        res = multiply_output_sensitive(a, b, t, engine=engine)
    else:
        res = correct_product(a, b, c, t, engine=engine)
    assert res.product.data.tolist() == _truth(a, b).tolist()
    assert res.prime_passes == passes
    # one sweep per pass, each with the values of every pass so far
    assert [len(known) for known in sweep_watch["sweeps"]] == list(range(1, passes + 1))
    # no prime's whole-pair fingerprint is computed twice in one call, also
    # when the sweep evaluated the next pass's prime or an earlier sweep
    # evaluated this pass's
    assert max(sweep_watch["evaluated"].values()) == 1, sweep_watch["evaluated"]


def test_between_t_and_2t_errors_with_multiples_of_p1_are_refused(sweep_watch):
    # some wrong entries invisible to the first pass: its writes and values
    # go to the sweep, and the second pass finds more than t in all
    rng = seeded_rng(93)
    n = 12
    for _ in range(6):
        a = rng.integers(-(1 << 20), (1 << 20) + 1, (n, n))
        b = rng.integers(-(1 << 20), (1 << 20) + 1, (n, n))
        truth = _truth(a, b)
        p1 = build_crt_basis(16, augment(a, b, truth.astype(np.int64))
                             .magnitude_bound()).fields[0].p
        t = int(rng.integers(1, 6))
        k = int(rng.integers(t + 1, 2 * t + 1))
        hidden = int(rng.integers(1, k + 1))
        deltas = _random_deltas(rng, k)
        deltas[:hidden] = [d * p1 for d in deltas[:hidden]]
        c = _with_errors(truth, _random_cells(rng, n, k), deltas)
        with pytest.raises(PromiseViolationError):
            correct_product(a, b, c, t)
    assert sweep_watch["sweeps"]


def test_sweep_values_stay_fresh_beyond_2t(sweep_watch):
    # past 2t wrong entries a pass may leave entries visible mod its prime
    # for a later pass to write, so the values of earlier primes move too.
    # Nothing is guaranteed about the outcome, but the values must be those
    # of the current pair
    rng = seeded_rng(95)
    for k in (3, 4) * 100:    # at n = 2, t = 1 a few runs take two passes
        a = rng.integers(-9, 10, (2, 2))
        b = rng.integers(-9, 10, (2, 2))
        c = _with_errors(_truth(a, b), _random_cells(rng, 2, k), _random_deltas(rng, k))
        try:
            correct_product(a, b, c, 1)
        except PromiseViolationError:
            pass
    assert max(map(len, sweep_watch["sweeps"])) > 1


# -- verify against the dense product ------------------------------------------


def _layout_cells(layout, n, k, rng):
    """k distinct cells of an n x n matrix, all in one quadrant, one row,
    one column or on the diagonal."""
    h = n // 2
    if layout == "quadrant":
        pool = [(i, j) for i in range(h, n) for j in range(h)]
    elif layout == "row":
        pool = [(h + 1, j) for j in range(n)]
    elif layout == "column":
        pool = [(i, h - 1) for i in range(n)]
    else:
        pool = [(i, i) for i in range(n)]
    return [pool[int(e)] for e in rng.choice(len(pool), size=k, replace=False)]


@pytest.mark.parametrize("n", [12, 33, 40])
@pytest.mark.parametrize("layout", ["quadrant", "row", "column", "diagonal"])
def test_verify_against_the_dense_product_by_layout(n, layout):
    rng = seeded_rng(94 + n)
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    truth = _truth(a, b)
    assert verify_product(a, b, truth.astype(np.int64), 1)
    for t in (1, 3, n):
        for k in sorted({1, (t + 1) // 2, t}):
            c = _with_errors(truth, _layout_cells(layout, n, k, rng),
                             _random_deltas(rng, k))
            assert verify_product(a, b, c, t) == (c == truth).all()
    # a pair of errors that cancels in the all-ones probe
    d = int(rng.integers(1, 10))
    c = _with_errors(truth, _layout_cells(layout, n, 2, rng), [d, -d])
    stats = {}
    assert not verify_product(a, b, c, 2, stats=stats)
    assert "probe_exits" not in stats


# -- resource guards ---------------------------------------------------------


def test_locator_budget_refuses_before_evaluating(monkeypatch):
    rng = seeded_rng(90)
    n = 8
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    truth = _truth(a, b)
    c = _with_errors(truth, _random_cells(rng, n, 3), _random_deltas(rng, 3))
    monkeypatch.setattr(correct_mod, "_BM_VALUES", 8)
    calls = []
    monkeypatch.setattr(correct_mod.PronyEngine, "scratch_values",
                        lambda self, *args, **kwargs: calls.append(args))
    with pytest.raises(ResourceLimitError):
        correct_product(a, b, c, 5)          # 10 values
    assert calls == []
    # the quadtree needs no locator
    assert correct_product(a, b, c, 5, engine="quadtree").correction_count == 3


def test_root_search_in_small_segments(monkeypatch):
    # segments of 7 points: roots on segment edges and several segments
    # per pass give the same corrections as one segment; K_GEMM = 0 sends
    # the locator's 10 coefficients to the chirp, which runs in segments
    rng = seeded_rng(91)
    n = 12
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    truth = _truth(a, b)
    c = _with_errors(truth, _random_cells(rng, n, 9), _random_deltas(rng, 9))
    whole = correct_product(a, b, c, 9).corrections
    monkeypatch.setattr(poly, "_SEGMENT", 7)
    monkeypatch.setattr(verify_mod, "K_GEMM", 0)
    assert correct_product(a, b, c, 9).corrections == whole


# -- the root sweep: one Vandermonde GEMM, the chirp past the crossover -------


def _sweep(coeffs, ctx, m):
    return np.concatenate([vals for _, vals in correct_mod.sweep_values(coeffs, ctx, m)])


def _engine(m, ctx, t=1):
    zero = np.zeros((m, m), dtype=np.int64)
    return correct_mod.PronyEngine(augment(zero, zero, zero), t, ctx, {})


def _locator(exps, ctx):
    """prod_e (1 - omega^e x), whose reversal has the roots omega^e."""
    out = [1]
    for e in exps:
        root = pow(ctx.omega, int(e), ctx.p)
        out = [(x - root * y) % ctx.p for x, y in zip(out + [0], [0] + out)]
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("m", [1, 2, 64, 128, 256])
def test_gemm_sweep_matches_the_chirp_on_every_exponent(monkeypatch, m):
    # the default path runs the GEMM up to L + 1 = K_GEMM * bit_length(m^2)
    # coefficients and the chirp past it; both give every value, on a prime
    # just above m^2 and on 2^31 - 1, where _matmul_mod splits into limbs
    rng = seeded_rng(96 + m)
    default_k = verify_mod.K_GEMM
    cross = default_k * (m * m).bit_length()
    chirps = []
    real_eval = correct_mod.progression_eval
    monkeypatch.setattr(correct_mod, "progression_eval",
                        lambda *args: chirps.append(1) or real_eval(*args))
    big = FieldCtx((1 << 31) - 1, 7, order_lb=m * m)
    for ctx in (build_crt_basis(m, 1).fields[0], big):
        for degree in (0, 1, 8, cross - 1, cross, cross + 1):
            coeffs = rng.integers(0, ctx.p, degree + 1)
            runs = []
            for k_gemm in (1 << 30, 0, default_k):
                monkeypatch.setattr(verify_mod, "K_GEMM", k_gemm)
                del chirps[:]
                runs.append(_sweep(coeffs, ctx, m))
            assert bool(chirps) == (degree + 1 > cross), degree
            gemm, chirp, default = runs
            assert len(gemm) == m * m
            assert gemm.tolist() == chirp.tolist() == default.tolist(), (ctx.p, degree)
            for e in rng.choice(m * m, size=min(m * m, 5), replace=False):
                x = pow(ctx.omega, int(e), ctx.p)
                assert gemm[e] == oracle_eval(coeffs.tolist(), x, ctx.p)
    assert (big.p - 1) ** 2 >= 1 << 53     # one coefficient takes the limb split


def test_gemm_sweep_finds_roots_across_column_chunks(monkeypatch):
    # chunks of 3 columns of 16 exponents each: roots on both sides of every
    # chunk edge come back ascending, as from one chunk and from the chirp
    m = 16
    ctx = build_crt_basis(m, 1).fields[0]
    exps = [0, 47, 48, 95, 96, 200, 255]
    locator = _locator(exps[::-1], ctx)
    engine = _engine(m, ctx)
    whole = engine.roots(locator)
    monkeypatch.setattr(verify_mod, "_GEMM_CELLS", 3 * m)
    starts = [e0 for e0, _ in correct_mod.sweep_values(locator[::-1], ctx, m)]
    assert starts == list(range(0, m * m, 3 * m))
    assert engine.roots(locator) == whole == exps
    monkeypatch.setattr(verify_mod, "K_GEMM", 0)
    assert engine.roots(locator) == exps


def test_root_count_other_than_the_degree_is_refused(monkeypatch):
    m = 16
    ctx = build_crt_basis(m, 1).fields[0]
    monkeypatch.setattr(verify_mod, "_GEMM_CELLS", 3 * m)
    engine = _engine(m, ctx, t=3)
    # a locator that vanishes everywhere: the sweep stops after the first
    # chunk, with more roots than the degree
    assert engine.roots(np.zeros(3, dtype=np.int64)) == list(range(3 * m))
    # the root 0 of (x - omega^5) * x lies off the grid: one root of two
    beyond = np.append(_locator([5], ctx), 0)
    assert engine.roots(beyond) == [5]
    rng = seeded_rng(97)
    a = rng.integers(-9, 10, (m, m))
    b = rng.integers(-9, 10, (m, m))
    c = _with_errors(_truth(a, b), [(1, 2)], [4])
    for locator in (np.zeros(3, dtype=np.int64), beyond):
        monkeypatch.setattr(correct_mod, "berlekamp_massey", lambda vals, p: locator)
        with pytest.raises(PromiseViolationError, match="error locator of degree 2 has"):
            correct_product(a, b, c, 3)


# -- hypothesis ---------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 6),
    t=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_engines_against_dense_product(n, t, seed, data):
    rng = seeded_rng(seed)
    k = data.draw(st.integers(0, min(2 * t, n * n)), label="wrong entries")
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    truth = _truth(a, b)
    c = _with_errors(truth, _random_cells(rng, n, k), _random_deltas(rng, k))
    if k <= t:
        _agree_within_promise(a, b, c, t, truth)
    else:
        _refused(a, b, c, t)
