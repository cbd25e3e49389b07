"""Walkthrough: where the verifier wins on wall time.

Verification work grows near-quadratically with n (t = n test values,
each a polynomial evaluation), while recomputing the product grows
cubically. The crossover on this machine typically lands around a few
hundred; run with larger sizes to push the gap further. The primes and
limbs columns are what the t = n verification reports in its stats: the
size of its CRT basis, and the most float64 limbs its chirp transforms
split a residue into (0 where no chirp ran). One limb serves t = n up to
n = 512.

The t = 8 column verifies the same equal C under a promise of 8 errors.
Its 8 points run on the Vandermonde GEMM evaluator, whose cost falls with
t, while t = n runs on the chirp from n = 128 on (at n = 64 its 64
points are still below the GEMM bound of 12 * bit_length(64) = 84).

The refute columns time verify_product on two wrong C's: one planted
error, which the exact all-ones sum of AB - C refutes before any
transform, and a pair of errors +d, -d in one row, which cancel in that
sum and are refuted by the t-point fingerprint.

The second table times correction with t = n planted errors at n = 128
and 256 on both engines. The prony engine evaluates the fingerprint at
2t points, runs Berlekamp-Massey and sweeps the locator's roots once,
O~(n^2 + n*t + t^2) per prime; the quadtree search of the paper,
O~(sqrt(t) n^2 + t^2), evaluates the four children of a block together
at each granularity step. Both end with the same integer sweep at 2t
points; after a prony pass it evaluates only the primes no pass has
evaluated, and reads the pass's own values, shifted by its writes, mod
the others.

The third table goes past the sizes above at t = 8 only, on the same
kind of factors, against the float64 BLAS product (exact here: every sum
stays below 2^53), which also supplies C. The factors are IntMatrix
objects, so verify_product does not copy them. Its Vandermonde GEMMs
take A, B and C as they are: with entries this small, one float64 GEMM
is exact even at n = 2048, where residues mod p would need four limb
GEMMs.
"""

import time

import numpy as np

from matverify import (
    IntMatrix,
    correct_product,
    naive_multiply,
    seeded_rng,
    verify_product,
)


def median_of(fn, reps=3):
    times = []
    for _ in range(reps):
        s = time.perf_counter()
        fn()
        times.append(time.perf_counter() - s)
    return sorted(times)[reps // 2]


rng = seeded_rng(12)
print(f"{'n':>5} {'verify (s)':>12} {'t = 8 (s)':>10} {'refute 1 (s)':>13} {'refute pair (s)':>16} "
      f"{'recompute (s)':>14} {'ratio':>7} {'primes':>7} {'limbs':>6}")
for n in (64, 128, 256, 384, 512):
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = naive_multiply(a, b).data
    one, pair = c.copy(), c.copy()
    one[n // 3, n // 2] += 1
    pair[n // 3, 1] += 7
    pair[n // 3, n - 1] -= 7
    stats = {}
    verify_product(a, b, c, n, stats=stats)  # warm caches before timing
    tv = median_of(lambda: verify_product(a, b, c, n))
    t8 = median_of(lambda: verify_product(a, b, c, 8))
    assert not verify_product(a, b, one, n) and not verify_product(a, b, pair, n)
    t1 = median_of(lambda: verify_product(a, b, one, n))
    t2 = median_of(lambda: verify_product(a, b, pair, n))
    tn = median_of(lambda: naive_multiply(a, b))
    print(f"{n:>5} {tv:>12.4f} {t8:>10.4f} {t1:>13.4f} {t2:>16.4f} {tn:>14.4f} {tn / tv:>7.2f} "
          f"{stats['primes']:>7} {stats.get('limbs', 0):>6}")

print(f"\n{'n':>5} {'t':>5} {'prony (s)':>10} {'quadtree (s)':>13} "
      f"{'prony evals':>12} {'quadtree evals':>15}")
for n in (128, 256):
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = naive_multiply(a, b).data
    bad = c.copy()
    pos = rng.choice(n * n, size=n, replace=False)
    bad.flat[pos] += rng.integers(1, 10, size=n) * rng.choice((-1, 1), size=n)
    row = []
    for engine in ("prony", "quadtree"):
        s = time.perf_counter()
        res = correct_product(a, b, bad, n, engine=engine)
        row.append((time.perf_counter() - s, res.evaluations))
        assert np.array_equal(res.product.data, c) and res.correction_count == n
    (tp, ep), (tq, eq) = row
    print(f"{n:>5} {n:>5} {tp:>10.3f} {tq:>13.3f} {ep:>12} {eq:>15}")

print(f"\n{'n':>5} {'verify, t = 8 (s)':>18} {'float64 BLAS (s)':>17} {'ratio':>7} "
      f"{'primes':>7}")
for n in (1024, 2048):
    af = rng.integers(-9, 10, (n, n)).astype(np.float64)
    bf = rng.integers(-9, 10, (n, n)).astype(np.float64)
    a, b = IntMatrix(af.astype(np.int64)), IntMatrix(bf.astype(np.int64))
    c = IntMatrix((af @ bf).astype(np.int64))
    stats = {}
    assert verify_product(a, b, c, 8, stats=stats)
    t8 = median_of(lambda: verify_product(a, b, c, 8))
    tb = median_of(lambda: af @ bf)
    print(f"{n:>5} {t8:>18.4f} {tb:>17.4f} {tb / t8:>7.2f} {stats['primes']:>7}")
