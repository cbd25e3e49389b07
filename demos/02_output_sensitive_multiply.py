"""Walkthrough: multiplying dense factors whose product is sparse.

When AB is promised to have at most t nonzero entries, the product is
assembled from C = 0 by locating its nonzero entries: by default from the
error locator that Berlekamp-Massey finds in 2t fingerprint values, or,
with engine="quadtree", one entry at a time through the paper's quadtree
descent over cached polynomial test values. Work scales with t, not with
the n^2 entries a dense method would touch.
"""

import numpy as np

from matverify import multiply_output_sensitive, seeded_rng

rng = seeded_rng(7)
n = 64

# two dense factors arranged so almost everything cancels: every column
# of a equals u, and every column sum of b is zero except one
u = rng.integers(1, 5, (n, 1))
a = np.tile(u, (1, n))
b = rng.integers(-4, 5, (n, n))
b[-1] -= b.sum(axis=0)
b[-1, 3] += 5
prod = a @ b
print(f"factors are fully dense; product has {np.count_nonzero(prod)} "
      f"nonzeroes out of {n * n}")

for engine in ("prony", "quadtree"):
    res = multiply_output_sensitive(a, b, t=np.count_nonzero(prod), engine=engine)
    print(f"\n{engine} engine")
    print(f"output-sensitive result exact: {np.array_equal(res.product.data, prod)}")
    print(f"entries written:               {res.correction_count}")
    print(f"max granularity reached:       {res.max_granularity}")
    print(f"field evaluations:             {res.evaluations}")

# identity products at a glance
eye = np.eye(8, dtype=np.int64)
res = multiply_output_sensitive(eye, eye, t=8)
print(f"\nI @ I recovered entry by entry: "
      f"{[(i, j) for i, j, _, _ in res.corrections]}")
