import tracemalloc

import numpy as np
import pytest

from matverify import field
from matverify import (
    FieldCtx,
    ResourceLimitError,
    UsageError,
    build_crt_basis,
    find_generator,
    multiplicative_order,
    power_sequence,
    seeded_rng,
    sieve_primes_in_range,
)

from helpers import oracle_order, oracle_primes


def test_sieve_small_ranges():
    assert sieve_primes_in_range(2, 10) == [2, 3, 5, 7]
    assert sieve_primes_in_range(17, 25) == [17, 19, 23]
    assert sieve_primes_in_range(8, 10) == []


def test_sieve_matches_trial_division():
    for lo, hi in [(2, 200), (100, 400), (991, 1100), (5000, 5200)]:
        assert sieve_primes_in_range(lo, hi) == oracle_primes(lo, hi)


def test_sieve_rejects_bad_ranges():
    with pytest.raises(UsageError):
        sieve_primes_in_range(1, 10)
    with pytest.raises(UsageError):
        sieve_primes_in_range(2, 1 << 63)


def test_sieve_span_budget():
    with pytest.raises(ResourceLimitError):
        sieve_primes_in_range(2, (1 << 27) + 100)


def test_find_generator_golden():
    assert find_generator(5) == 2
    assert find_generator(17) == 3
    assert find_generator(3) == 2


def test_find_generator_is_full_order():
    # the least element of full order, for every odd prime below 2000
    for p in oracle_primes(3, 2000):
        least = next(g for g in range(2, p) if oracle_order(g, p) == p - 1)
        assert find_generator(p) == least


def test_find_generator_largest_word_prime_in_bounded_memory():
    tracemalloc.start()
    try:
        g = find_generator.__wrapped__((1 << 31) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == 7
    assert peak < 1 << 20


def test_find_generator_rejects_huge_prime_quickly():
    # checked before any trial division, which would run for minutes
    with pytest.raises(ResourceLimitError):
        find_generator((1 << 61) - 1)


def test_multiplicative_order_matches_oracle():
    for p in [7, 17, 101]:
        for x in range(1, p):
            assert multiplicative_order(x, p) == oracle_order(x, p)


def test_multiplicative_order_refuses_past_its_budget(monkeypatch):
    # the powers of 7 mod 2^31 - 1 (a primitive root) would fill 16 GiB;
    # small orders at word primes are still answered
    assert multiplicative_order(2, (1 << 31) - 1) == 31
    monkeypatch.setattr(field, "_BUDGET_BYTES", 8 * 512)   # 512 residues
    g = find_generator(1009)
    with pytest.raises(ResourceLimitError):
        multiplicative_order(g, 1009)          # order 1008
    with pytest.raises(ResourceLimitError):
        multiplicative_order(7, (1 << 31) - 1)
    assert multiplicative_order(pow(g, 2, 1009), 1009) == 504
    assert multiplicative_order(2, (1 << 31) - 1) == 31


def test_power_sequence():
    p = 101
    seq = power_sequence(5, 20, p)
    assert list(seq) == [pow(5, k, p) for k in range(20)]
    assert list(power_sequence(0, 3, p)) == [1, 0, 0]


def _wide_values(p, size, seed):
    # the edges, where (x // p) * p wraps past int64 at both ends, then
    # random values in (-2^62, 2^62)
    edges = [0, p, -p, p - 1, -(p - 1), p * p, -p * p, (1 << 63) - 1, -(1 << 63)]
    rest = seeded_rng(seed).integers(-(1 << 62) + 1, 1 << 62, size - len(edges))
    return np.concatenate([np.array(edges, dtype=np.int64), rest])


@pytest.mark.parametrize("p", [2, 3, 16411, (1 << 31) - 1])
def test_reduce_in_place_matches_numpy_remainder(p):
    # short arrays take numpy's % and long ones the division: both in place
    for size in (9, 200, field._SHORT, 5000):
        x = _wide_values(p, size, size)
        want = x % p
        assert field.reduce_in_place(x, p) is x
        assert np.array_equal(x, want)


@pytest.mark.parametrize("p", [2, 3, 16411, (1 << 31) - 1])
def test_reduce_in_place_on_strided_views(p):
    # a view is reduced where it lies, and nothing around it moves
    base = _wide_values(p, 64 * 128, p % 1000).reshape(64, 128)
    for pick in (np.s_[:, 3:120:2], np.s_[::3, ::-1], np.s_[:4, :8:3]):
        for grid in (base, base.T):
            before = grid.copy()
            view = grid[pick]
            assert not view.flags.c_contiguous
            want = view % p
            field.reduce_in_place(view, p)
            assert np.array_equal(view, want)
            inside = np.zeros(grid.shape, dtype=bool)
            inside[pick] = True
            assert np.array_equal(grid[~inside], before[~inside])
            grid[pick] = before[pick]


def test_crt_basis_goldens():
    assert [f.p for f in build_crt_basis(4, 64).fields] == [17, 19]
    assert [f.p for f in build_crt_basis(2, 2).fields] == [5]
    # n below 2 clamps to the n=2 construction
    assert [f.p for f in build_crt_basis(1, 2).fields] == [5]


def test_crt_basis_covers_bound():
    for n, bound in [(2, 10), (4, 10**6), (8, 10**12), (64, 10**30)]:
        basis = build_crt_basis(n, bound)
        assert basis.modulus_product > 2 * bound
        side = max(n, 2)
        for ctx in basis.fields:
            assert ctx.p >= side * side + 1
            assert ctx.order_lb >= side * side


def test_crt_roots_have_promised_order():
    for n in (2, 3, 8, 16):
        basis = build_crt_basis(n, 10**6)
        for ctx in basis.fields:
            assert oracle_order(ctx.omega, ctx.p) >= max(n, 2) ** 2


def test_field_ctx_validation():
    with pytest.raises(UsageError):
        FieldCtx(17, 0)
    with pytest.raises(UsageError):
        FieldCtx(17, 17)
    ctx = FieldCtx(17, 3, order_lb=16)
    assert list(power_sequence(ctx.omega, 5, ctx.p)) == [1, 3, 9, 10, 13]
