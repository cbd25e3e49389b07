"""Independent desk oracles shared across the test modules. Everything
here is deliberately naive: list arithmetic, trial division, schoolbook
polynomial algebra. None of it imports the algorithms under test."""

import numpy as np


def oracle_primes(lo: int, hi: int) -> list[int]:
    out = []
    for q in range(max(lo, 2), hi):
        if all(q % d for d in range(2, int(q**0.5) + 1)):
            out.append(q)
    return out


def oracle_order(x: int, p: int) -> int:
    acc, k = x % p, 1
    while acc != 1:
        acc = acc * x % p
        k += 1
    return k


def oracle_matmul(a, b) -> list[list[int]]:
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(int(a[i][s]) * int(b[s][j]) for s in range(k)) for j in range(m)]
        for i in range(n)
    ]


def oracle_poly_mul(f, g, p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = (out[i + j] + int(fi) * int(gj)) % p
    return trim(out)


def oracle_eval(f, x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + int(c)) % p
    return acc


def trim(coeffs):
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def fingerprint_coeffs(left, right, p: int) -> list[int]:
    """Full coefficient expansion of the product fingerprint: entry (i,j)
    of left@right lands on X^(i + side*j)."""
    prod = oracle_matmul(left, right)
    side = len(prod)
    out = [0] * (side * side)
    for i in range(side):
        for j in range(side):
            out[i + side * j] = prod[i][j] % p
    return out


def plant_errors(c: np.ndarray, z: int, rng) -> np.ndarray:
    """Perturb exactly z distinct entries of a copy of c by nonzero deltas."""
    out = c.copy()
    pos = rng.choice(c.size, size=z, replace=False)
    out.flat[pos] += rng.integers(1, 10, size=z) * rng.choice((-1, 1), size=z)
    return out


def skew_pair():
    """The known blind spot of the bilinear single-point test: nonzero D
    whose quadratic form vanishes identically."""
    d = np.array([[0, 1], [-1, 0]], dtype=np.int64)
    return d, np.eye(2, dtype=np.int64)


def boolean_matmul(a, b) -> np.ndarray:
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64) > 0
            ).astype(np.int64)


def brute_three_sum(s1, s2, s3) -> bool:
    return any(x + y == z for x in s1 for y in s2 for z in s3)


def all_boolean_matrices(n: int):
    for bits in range(1 << (n * n)):
        yield np.array(
            [[(bits >> (i * n + j)) & 1 for j in range(n)] for i in range(n)],
            dtype=np.int64,
        )


def oracle_berlekamp_massey(values, p: int) -> np.ndarray:
    """Massey (1969) one step per value: the discrepancy of every value is
    its own reduced dot, and a zero one only moves b one place up. Returns
    the L + 1 coefficients of the shortest connection polynomial, c[0] = 1,
    as int64."""
    c = np.ones(1, dtype=np.int64)
    b = np.ones(1, dtype=np.int64)
    length, gap, b_inv = 0, 1, 1
    for u in range(len(values)):
        d = int((c * values[u - length : u + 1][::-1] % p).sum() % p)
        if d == 0:
            gap += 1
            continue
        prev, top = c, gap + len(b)
        c = np.zeros(max(len(prev), top), dtype=np.int64)
        c[: len(prev)] = prev
        c[gap:top] = (c[gap:top] - d * b_inv % p * b) % p
        if 2 * length <= u:
            length, b, b_inv, gap = u + 1 - length, prev, pow(d, -1, p), 1
        else:
            gap += 1
    return c
