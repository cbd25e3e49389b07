"""Seeded instances for the benchmark workloads.

Everything here uses numpy and the standard library only, so no code under
test shapes its own input. Each instance is known to be right or wrong by
construction: a product ``C`` is the exact product of ``A`` and ``B`` plus
planted nonzero deltas, and the truth the checker compares against is that
exact product.

``generate(workload, seed, out_dir)`` writes one directory per instance
(``.npy`` arrays, and ``.mat`` text files for the ``cli`` workload) plus a
``manifest.json`` describing the operation and its expected outcome. The
same seed gives byte-identical files.

Instances come in rounds: every round holds one instance of each kind the
workload runs, and the benchmark measures whole rounds. Where an
operation's cost depends on the values (where the errors lie, how the
search splits), successive rounds draw fresh values, so a run averages
over several draws rather than repeating one.
"""

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("verify", "correct", "cli")

_F64_EXACT = 1 << 53
_I64_SAFE = 1 << 62


def rng_for(seed: int, workload: str) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.Generator(np.random.Philox(key=[seed, tag]))


def exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB as int64: float64 BLAS while every partial sum is exactly
    representable (n * max|A| * max|B| < 2^53), an object dot otherwise."""
    bound = a.shape[1] * int(np.abs(a).max()) * int(np.abs(b).max())
    if bound >= _I64_SAFE:
        raise ValueError("instance product would not fit in int64")
    if bound < _F64_EXACT:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return np.rint(prod).astype(np.int64)
    return np.dot(a.astype(object), b.astype(object)).astype(np.int64)


def least_prime_above(x: int) -> int:
    """The least prime > x; the first CRT prime the paper's construction
    picks for side sqrt(x)."""
    q = x + 1
    while any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        q += 1
    return q


def error_positions(rng, n: int, k: int, layout: str) -> np.ndarray:
    """k distinct flat positions of an n x n matrix, laid out spread over
    the whole matrix, in one row, in one column, or in one quadrant."""
    if layout == "spread":
        return rng.choice(n * n, size=k, replace=False)
    if layout == "row":
        return int(rng.integers(n)) * n + rng.choice(n, size=k, replace=False)
    if layout == "column":
        return rng.choice(n, size=k, replace=False) * n + int(rng.integers(n))
    if layout == "quadrant":
        h = n // 2
        qi, qj = (int(v) for v in rng.integers(2, size=2))
        cells = rng.choice(h * h, size=k, replace=False)
        return (qi * h + cells // h) * n + qj * h + cells % h
    raise ValueError(f"unknown layout {layout!r}")


def plant(rng, truth: np.ndarray, k: int, layout: str, unit: int = 1) -> np.ndarray:
    """truth with k entries moved by nonzero multiples of unit."""
    c = truth.copy()
    pos = error_positions(rng, truth.shape[0], k, layout)
    c.flat[pos] += unit * rng.integers(1, 10, size=k) * rng.choice((-1, 1), size=k)
    return c


def factors(rng, n: int, cap: int = 9) -> tuple[np.ndarray, np.ndarray]:
    a = rng.integers(-cap, cap + 1, size=(n, n))
    b = rng.integers(-cap, cap + 1, size=(n, n))
    return a, b


def cancelling_factors(rng, n: int, nonzero_cols: int):
    """Dense factors whose product is nonzero only in a few columns (the
    construction of demos/02): every column of A is u, and every column of
    B sums to zero except nonzero_cols of them."""
    u = rng.integers(1, 5, size=(n, 1))
    a = np.tile(u, (1, n))
    b = rng.integers(-4, 5, size=(n, n))
    b[-1] -= b.sum(axis=0)
    cols = rng.choice(n, size=nonzero_cols, replace=False)
    b[-1, cols] += 5
    return a, b


def write_mat(path: Path, m: np.ndarray) -> None:
    """The matverify text format: 'ROWS COLS' then one line per row."""
    body = "\n".join(" ".join(map(str, row)) for row in m.tolist())
    path.write_text(f"{m.shape[0]} {m.shape[1]}\n{body}\n", encoding="utf-8")


class _Writer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.records: list[dict] = []

    def add(self, name: str, op: str, expect: dict, arrays=None, mats=None,
            round_no: int = 0, **extra):
        rel = f"{len(self.records):02d}_{name}"
        d = self.out_dir / rel
        d.mkdir(parents=True)
        for key, arr in (arrays or {}).items():
            np.save(d / f"{key}.npy", np.ascontiguousarray(arr, dtype=np.int64))
        for key, arr in (mats or {}).items():
            write_mat(d / f"{key}.mat", arr)
        self.records.append({"name": name, "dir": rel, "op": op, "expect": expect,
                             "round": round_no, **extra})

    def finish(self, workload: str, seed: int) -> dict:
        manifest = {"workload": workload, "seed": seed, "instances": self.records}
        text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
        (self.out_dir / "manifest.json").write_text(text, encoding="utf-8")
        return manifest


def _verify(w: _Writer, rng) -> None:
    # t = n, entries +-9: one CRT prime. Half the C's are equal; the rest
    # carry 1..t errors in each layout. One size (not a power of two) keeps
    # every operation in one cost cluster, so the median and the tail sit
    # inside it rather than on the edge between two sizes; n = 512 runs in
    # the cli workload.
    n = 384
    for layout in (None, "spread", None, "row", None, "column", None, "quadrant"):
        a, b = factors(rng, n)
        truth = exact_product(a, b)
        if layout is None:
            c = truth
        else:
            c = plant(rng, truth, int(rng.integers(1, n + 1)), layout)
        w.add(f"n{n}_{layout or 'equal'}", "verify", {"equal": layout is None},
              arrays={"a": a, "b": b, "c": c}, t=n)


# more rounds than the fastest run measured (6), so none repeats a draw
CORRECT_ROUNDS = 8


def _correct(w: _Writer, rng) -> None:
    for r in range(CORRECT_ROUNDS):
        _correct_round(w, rng, r)


def _correct_round(w: _Writer, rng, r: int) -> None:
    t = 64
    for name, n, layout in (("spread", 128, "spread"), ("quadrant", 128, "quadrant"),
                            ("row", 128, "row"), ("pad96", 96, "spread")):
        a, b = factors(rng, n)
        truth = exact_product(a, b)
        c = plant(rng, truth, 8, layout)
        w.add(name, "correct", {"product": "truth"},
              arrays={"a": a, "b": b, "c": c, "truth": truth}, round_no=r, t=t)

    # deltas that vanish mod the first prime force a second prime pass and
    # the integer sweep between passes
    n = 128
    a, b = factors(rng, n, cap=1 << 20)
    truth = exact_product(a, b)
    c = plant(rng, truth, 4, "spread", unit=least_prime_above(n * n))
    w.add("p1_multiples", "correct", {"product": "truth"},
          arrays={"a": a, "b": b, "c": c, "truth": truth}, round_no=r, t=t)

    a, b = cancelling_factors(rng, 64, 2)
    truth = exact_product(a, b)
    w.add("osmm128", "osmm", {"product": "truth"},
          arrays={"a": a, "b": b, "truth": truth}, round_no=r,
          t=int(np.count_nonzero(truth)))

    n, t = 64, 16
    a, b = factors(rng, n)
    c = plant(rng, exact_product(a, b), t + 1, "spread")
    w.add("promise_broken", "correct", {"raises": "PromiseViolationError"},
          arrays={"a": a, "b": b, "c": c}, round_no=r, t=t)


def _cli(w: _Writer, rng, seed: int) -> None:
    # Costs at the reference speed: the three-prime miss about 0.65 s;
    # Freivalds at n = 768 (mostly parsing), the three-prime equal run and
    # t = 8 at n = 512 1.3-1.6 s; the correction 2 s. The median falls in
    # the middle group. The miss goes first: it is the cold set-up
    # operation.
    n = 256
    a, b = factors(rng, n, cap=1 << 14)
    truth = exact_product(a, b)
    c_bad = plant(rng, truth, 1, "spread")
    w.add("three_primes_miss", "cli", {"exit": 1, "verdict": "not_equal"},
          mats={"a": a, "b": b, "c": c_bad},
          argv=["verify", "a.mat", "b.mat", "c.mat", str(n)])

    n = 768
    a, b = factors(rng, n)
    w.add("freivalds768", "cli", {"exit": 0, "verdict": "equal"},
          mats={"a": a, "b": b, "c": exact_product(a, b)},
          argv=["--seed", str(seed), "verify", "a.mat", "b.mat", "c.mat",
                str(n), "--mode", "freivalds"])

    n = 512
    a, b = factors(rng, n)
    w.add("t8_n512", "cli", {"exit": 0, "verdict": "equal"},
          mats={"a": a, "b": b, "c": exact_product(a, b)},
          argv=["verify", "a.mat", "b.mat", "c.mat", "8"])

    # all three passes run when C is equal
    n = 320
    a, b = factors(rng, n, cap=1 << 14)
    w.add("three_primes_equal", "cli", {"exit": 0, "verdict": "equal"},
          mats={"a": a, "b": b, "c": exact_product(a, b)},
          argv=["verify", "a.mat", "b.mat", "c.mat", str(n)])

    n, errors = 128, 8
    a, b = factors(rng, n)
    truth = exact_product(a, b)
    w.add("correct_out_trace", "cli",
          {"exit": 0, "verdict": "success", "out": "truth", "trace_lines": errors},
          arrays={"truth": truth},
          mats={"a": a, "b": b, "c": plant(rng, truth, errors, "spread")},
          argv=["--trace", "trace.txt", "correct", "a.mat", "b.mat", "c.mat",
                "16", "--out", "out.mat"])


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's instances for seed into out_dir (which must not
    exist yet) and return the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True)
    w = _Writer(out_dir)
    rng = rng_for(seed, workload)
    if workload == "verify":
        _verify(w, rng)
    elif workload == "correct":
        _correct(w, rng)
    elif workload == "cli":
        _cli(w, rng, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return w.finish(workload, seed)
