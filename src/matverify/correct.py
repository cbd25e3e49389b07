"""Output-sensitive multiplication and product correction.

Two engines locate the nonzero entries of the augmented product one prime
at a time; every located entry is confirmed by an exact integer inner
product before it is written into C, and an integer sweep over the whole
CRT basis after each prime decides whether another prime is needed.
Each prime's whole-pair fingerprint values are evaluated once per run
(but see PronyEngine) into one table, known: a pass reads its prime's
there (root_values), the sweep reads them shifted by the writes since
(shift_values), and either adds the primes it evaluates. The engines
differ only in how they locate (and in the error a located right entry
raises).

- prony (the default): sparse interpolation, Berlekamp-Massey on 2t
  fingerprint values and one GEMM sweep for the error locator's roots
  (see PronyEngine). Cost O~(m^2 + m*t + t^2) per prime.
- quadtree: the paper's search, kept as its reference. It descends a
  quadtree of blocks using cached test values, doubling each block's
  granularity until a child witnesses, and patches the caches along the
  containing chain after every write. Cost O~(sqrt(t) m^2 + t^2).

Both engines detect every broken promise with at most 2t wrong entries:
the sweep runs at min(2t, m^2) points, and 2t values cannot all vanish on
a nonzero with at most 2t terms. Beyond 2t wrong entries nothing is
guaranteed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalCheckError,
    PromiseViolationError,
    ResourceLimitError,
    UsageError,
)
from .field import FieldCtx, build_crt_basis, power_sequence, reduce_in_place
from .matrix import (
    AugmentedPair,
    IntMatrix,
    SubmatrixId,
    as_matrix,
    augment,
    exact_dot,
    field_form,
    pad_to_pow2,
    square_matrices,
)
from . import verify as _verify
from . import poly as _poly
from .poly import progression_eval
from .verify import (
    FingerprintRep,
    _matmul_mod,
    eval_fingerprint_progression,
    kernel_path,
    verify_product,
)

# most values Berlekamp-Massey takes: at most one interpreter step each, of
# O(L) work for a locator of degree L <= count / 2
_BM_VALUES = 1 << 17


@dataclass
class CorrectionResult:
    """Outcome of a correction / output-sensitive multiplication run."""

    product: IntMatrix
    corrections: list[tuple[int, int, int, int]]  # (i, j, old, new)
    evaluations: int
    max_granularity: int
    granularity_map: dict[SubmatrixId, int]
    prime_passes: int
    kernel: str          # evaluator that ran: gemm, chirp, mixed or none
    engine: str          # prony or quadtree

    @property
    def correction_count(self) -> int:
        return len(self.corrections)


class CorrectionEngine:
    """One prime pass of correction, and the paper's quadtree engine.

    The pass is shared by both engines: run() takes the positions that
    locate() yields, confirms each by an exact inner product, writes it
    into C and patches any cached values; each evaluation reads C's block
    from the pair. Here locate() is the quadtree search, and the working
    state is its own: per-block granularity tau, the computed prefix of
    each block's test values as one residue array, and the nested queue
    of blocks certified to contain a nonzero."""

    def __init__(
        self, pair: AugmentedPair, t: int, ctx: FieldCtx, stats: dict, trace=None
    ):
        m = pair.side
        self.m = m
        self.pair = pair
        self.t = t
        self.ctx = ctx
        self.stats = stats
        self.trace = trace

        (self.ap, a_bound), (self.bp, b_bound) = (
            field_form(x.data, ctx.p, x.max_abs) for x in (pair.a, pair.b))
        self.bound = max(a_bound, b_bound)
        self.root = SubmatrixId(0, 0, m)

        self.tau: dict[SubmatrixId, int] = {}
        self.vals: dict[SubmatrixId, np.ndarray] = {}
        self.queue: list[SubmatrixId] = []

    # -- evaluation ------------------------------------------------------

    def scratch_values(
        self, s: SubmatrixId, lo: int, hi: int, grid: int = 1
    ) -> np.ndarray:
        """Block test values at exponents lo..hi-1 recomputed from the
        current factors; the oracle the caches must agree with. With grid=2
        they are the values of the four children of s, shape (2, 2, hi-lo).
        C's block goes through field_form under the current max|C|, so a
        write that lifts it to p or past switches C to residues."""
        i0, j0, side = s.i_start, s.j_start, s.side
        rows, cols = slice(i0, i0 + side), slice(j0, j0 + side)
        c = self.pair.c
        cb, c_bound = field_form(c.data[rows, cols], self.ctx.p, c.max_abs)
        rep = FingerprintRep(self.ctx, side, self.ap[rows].T, self.bp[:, cols], cb,
                             max(self.bound, c_bound))
        return eval_fingerprint_progression(rep, lo, hi - lo, self.stats, grid=grid)

    def _extend_values(self, s: SubmatrixId, target: int) -> None:
        """Extend the stored values of the four children of s to the prefix
        0..target-1. Siblings are always extended together, so they share
        one prefix."""
        kids = s.split()
        have = len(self.vals.get(kids[0], ()))
        if have >= target:
            return
        fresh = self.scratch_values(s, have, target, grid=2).reshape(len(kids), -1)
        for kid, row in zip(kids, fresh):
            self.vals[kid] = np.concatenate((self.vals.get(kid, row[:0]), row))

    def root_values(self, known: dict, count: int) -> np.ndarray:
        """The whole pair's first count values mod this pass's prime, from
        known, which the root's values at the missing exponents extend."""
        p = self.ctx.p
        vals = known.get(p, np.zeros(0, dtype=np.int64))
        if len(vals) < count:
            more = self.scratch_values(self.root, len(vals), count)
            known[p] = np.concatenate((vals, more))
        return known[p][:count]

    # -- search ----------------------------------------------------------

    def find_nonzero(self, s: SubmatrixId) -> tuple[int, int, dict]:
        """Locate a nonzero position inside block s, which the caches must
        already certify nonzero. Doubles granularity until some child
        witnesses, then descends into the child with the least witnessing
        exponent (ties broken by fixed child order)."""
        info = {"start": s, "nu": None}
        while s.side > 1:
            if self.tau.get(s, 0) == 0:
                self.tau[s] = s.side
            kids = s.split()
            while True:
                target = self.tau[s]
                self._extend_values(s, target)
                best = None
                for idx, child in enumerate(kids):
                    nz = np.flatnonzero(self.vals[child])
                    if nz.size and (best is None or nz[0] < best[0]):
                        best = (int(nz[0]), idx)
                if best is not None:
                    break
                if target >= s.side * s.side:
                    raise InternalCheckError(
                        "all test values zero at full granularity; caches corrupt"
                    )
                self.tau[s] = min(2 * target, s.side * s.side)
            if info["nu"] is None:
                info["nu"] = best[0]
            child = kids[best[1]]
            self.queue.append(child)
            s = child
        return s.i_start, s.j_start, info

    # -- update ----------------------------------------------------------

    def apply_write(self, i: int, j: int, old: int, new: int) -> None:
        """Patch every cached value on the containing chain after C[i, j]
        changed from old to new. Only the root and the children of searched
        blocks hold values, so the walk stops at the first block on the chain
        without them. The write moves each block fingerprint by -delta * X^e,
        and one power_sequence call gives the powers of every block's omega^e."""
        p = self.ctx.p
        delta = (new - old) % p
        chain = []
        s = self.root
        while (stored := self.vals.get(s)) is not None:
            chain.append((s, stored))
            if s.is_leaf:
                break
            s = s.child_containing(i, j)
        if delta and chain:
            exps = [(i - b.i_start) + b.side * (j - b.j_start) for b, _ in chain]
            bases = np.array([pow(self.ctx.omega, e, p) for e in exps], dtype=np.int64)
            moves = (p - delta) * power_sequence(bases, max(len(v) for _, v in chain), p)
        for k, (s, stored) in enumerate(chain):
            if delta:
                stored += moves[k, : len(stored)]
                reduce_in_place(stored, p)
            if not stored.any() and s in self.queue:
                self.queue.remove(s)

    # -- integer side ----------------------------------------------------

    def exact_inner(self, i: int, j: int) -> int:
        a, b = self.pair.a, self.pair.b
        return int(exact_dot(a.data[i], b.data[:, j], a.max_abs, b.max_abs))

    # -- driver ----------------------------------------------------------

    def locate(self, done: int, known: dict):
        """Yield (i, j, note) for one nonzero position after another; the
        caller writes each before the next is searched for. The note is
        the search's part of the trace line; done counts the corrections
        of earlier passes, for the errors raised here. known maps primes
        to the whole pair's values at the start of the pass; the root reads
        the sweep's min(max(2t, 1), m^2) of them and caches a copy of the
        first min(t, m^2), which apply_write patches."""
        cells = self.m * self.m
        values = self.root_values(known, min(max(2 * self.t, 1), cells))
        self.vals[self.root] = values[: min(self.t, cells)].copy()
        if self.vals[self.root].any():
            self.queue.append(self.root)
        while self.queue:
            i, j, info = self.find_nonzero(self.queue[-1])
            st = info["start"]
            yield i, j, (f"sub=({st.i_start},{st.j_start},{st.side}) "
                         f"tau={self.tau.get(st, 0)} nu={info['nu']}")

    def unchanged(self, i: int, j: int, done: int) -> Exception:
        """The error for a located entry that C already has right. A leaf
        the search reaches is nonzero mod p, so here that is a fault."""
        return InternalCheckError(
            f"field-level witness at ({i},{j}) has zero integer value"
        )

    def run(self, corrections: list, known: dict) -> None:
        for iteration, (i, j, note) in enumerate(self.locate(len(corrections), known)):
            new = self.exact_inner(i, j)
            old = self.pair.c.get(i, j)
            if new == old:
                raise self.unchanged(i, j, len(corrections))
            if len(corrections) >= self.t:
                raise PromiseViolationError(
                    f"more than {self.t} differing entries; "
                    f"entry {len(corrections) + 1} found at ({i},{j})",
                    position=(i, j),
                    corrections=len(corrections),
                )
            corrections.append((i, j, old, new))
            self.pair.c.set(i, j, new)
            self.apply_write(i, j, old, new)
            if self.trace is not None:
                self.trace.write(
                    f"prime={self.ctx.p} iter={iteration} {note} pos=({i},{j})\n"
                )


class PronyEngine(CorrectionEngine):
    """The sparse-interpolation engine: the pass of CorrectionEngine with
    locate() replaced; no quadtree blocks, so granularity reads 0.

    With D = AB - C over the padded m x m grid, the fingerprint values
    v_u = sum_e D_e * (omega^e)^u, e = i + m*j, satisfy the linear
    recurrence whose connection polynomial is prod_e (1 - omega^e x) over
    the entries with D_e != 0 mod p. Berlekamp-Massey recovers it from 2r
    values when r entries are wrong, so k = min(2t, 2m^2) values suffice
    under the promise (the cap is 2m^2, not m^2: r may reach m^2). The
    roots of the reversed locator among omega^0..omega^(m^2-1) are the
    wrong exponents. Its values come through root_values, as the
    quadtree's root's do; only when 2t > m^2 are a sweep's m^2 too few.

    A locator of degree L > t, a root count other than L, a root at an
    entry that is already right, or more than t corrections in all can
    only come from a broken promise, and each raises
    PromiseViolationError.
    """

    def roots(self, locator: np.ndarray) -> list[int]:
        """Exponents e < m^2 with omega^e a root of the reversed locator,
        ascending; stops early once more roots than the degree turned up."""
        found: list[int] = []
        for e0, vals in sweep_values(locator[::-1], self.ctx, self.m):
            found.extend((e0 + np.flatnonzero(vals == 0)).tolist())
            if len(found) >= len(locator):
                break
        return found

    def locate(self, done: int, known: dict):
        p, m, t = self.ctx.p, self.m, self.t
        count = min(2 * t, 2 * m * m)
        if count > _BM_VALUES:
            raise ResourceLimitError(
                f"{count} locator values exceed the Berlekamp-Massey budget "
                f"of {_BM_VALUES}"
            )
        # the sweep reads min(2t, m^2) of them, and at t = 0 one
        vals = self.root_values(known, max(1, count))[:count]
        if not vals.any():
            return
        locator = berlekamp_massey(vals, p)
        degree = len(locator) - 1
        if degree > t:
            raise PromiseViolationError(
                f"error locator of degree {degree} mod {p}: more than {t} "
                "differing entries",
                corrections=done,
            )
        found = self.roots(locator)
        if len(found) != degree:
            raise PromiseViolationError(
                f"error locator of degree {degree} has {len(found)} roots "
                f"mod {p}: more than {t} differing entries",
                corrections=done,
            )
        for e in found:
            j, i = divmod(e, m)
            yield i, j, f"L={degree}"

    def unchanged(self, i: int, j: int, done: int) -> Exception:
        return PromiseViolationError(
            f"locator root at ({i},{j}) mod {self.ctx.p}, an entry that is "
            f"already right: more than {self.t} differing entries",
            position=(i, j),
            corrections=done,
        )


def berlekamp_massey(values: np.ndarray, p: int) -> np.ndarray:
    """Shortest connection polynomial of a sequence over F_p (Massey 1969):
    coefficients c[0] = 1, ..., c[L] with sum_i c[i] * values[u - i] = 0
    for L <= u < len(values). values are residues in [0, p), p < 2^31; they
    are only read. Each array holds exactly its L + 1 coefficients: x^gap * b
    never reaches past degree L. A discrepancy is one dot of c with the
    reversed window, in int64 while L + 1 products of at most (p - 1)^2 fit
    (at p = 2^31 - 1 only 2 do), with each product reduced first otherwise.

    A zero discrepancy changes none of c, b and L; it only moves b one
    place further up (gap, here u - last). So from a step u >= 2L, where the
    next nonzero discrepancy is certain to change the length, the values
    ahead are checked against the current c in windows of 1, 2, 4, ...
    values (_first_discrepancy), and the scan jumps to the first nonzero
    one: the early termination of Kaltofen & Lee (JSC 2003). An L-sparse
    sequence then takes about 2L interpreter steps plus O(log k) windows,
    not k steps. The work stays O(kL): a window that finds a nonzero
    discrepancy is followed by a length change, and a window only doubles
    after one that was all zero, so a run of s zero discrepancies costs at
    most 2s + 1 window values, each an O(L) dot."""
    budget = (_verify._I64_MAX - (p - 1)) // (p - 1) ** 2
    c = np.ones(1, dtype=np.int64)       # current connection polynomial
    b = np.ones(1, dtype=np.int64)       # the one before the last length change
    length, last, b_inv, u, k = 0, -1, 1, 0, len(values)
    while u < k:
        if 2 * length <= u:
            u, d = _first_discrepancy(c, values, u, p, budget)
            if d == 0:
                break
        else:
            seg = values[u - length : u + 1]
            if len(c) <= budget:     # one dot costs less than a convolution call
                d = int(c @ seg[::-1]) % p
            else:
                d = int(_discrepancies(c, seg, p, budget)[0])
            if d == 0:
                u += 1
                continue
        prev, gap = c, u - last
        top = gap + len(b)
        c = np.zeros(max(len(prev), top), dtype=np.int64)
        c[: len(prev)] = prev
        c[gap:top] = reduce_in_place(c[gap:top] - d * b_inv % p * b, p)
        if 2 * length <= u:
            length, b, b_inv, last = u + 1 - length, prev, pow(d, -1, p), u
        u += 1
    return c


def _first_discrepancy(c, values, u: int, p: int, budget: int) -> tuple[int, int]:
    """(v, d): the first step v >= u whose discrepancy d against c is
    nonzero, or (len(values), 0). Checks windows of 1, 2, 4, ... steps,
    each holding at most _GEMM_CELLS products."""
    width, cap = 1, max(1, _verify._GEMM_CELLS // len(c))
    while u < len(values):
        ds = _discrepancies(c, values[u - len(c) + 1 : u + width], p, budget)
        hit = np.flatnonzero(ds)
        if hit.size:
            return u + int(hit[0]), int(ds[hit[0]])
        u, width = u + len(ds), min(2 * width, cap)
    return u, 0


def _discrepancies(c, seg: np.ndarray, p: int, budget: int) -> np.ndarray:
    """sum_i c[i] * seg[v + L - i] mod p for v < len(seg) - L, L = len(c) - 1:
    one dot per step, in int64 when L + 1 products fit the budget, and
    with each product reduced before the sum otherwise."""
    if len(c) <= budget:
        return np.convolve(seg, c, "valid") % p
    rows = np.lib.stride_tricks.sliding_window_view(seg, len(c))
    return reduce_in_place(rows * c[::-1], p).sum(axis=1) % p


def sweep_values(coeffs: np.ndarray, ctx: FieldCtx, m: int):
    """(e0, values) chunks, ascending, of the polynomial with residue
    coefficients coeffs at omega^e for e < m^2. The value at omega^(i + m*j)
    is sum_l c_l (omega^i)^l ((omega^m)^j)^l: entry (i, j) of one exact GEMM
    of Vandermonde factors, run in chunks of columns (exponents m*j..) that
    stay within _GEMM_CELLS cells. That is O(m^2 log m) work up to K_GEMM *
    bit_length(m^2) coefficients; longer ones take the chirp in segments of
    poly._SEGMENT points."""
    p, omega, total = ctx.p, ctx.omega, m * m
    if len(coeffs) > _verify.K_GEMM * total.bit_length():
        for e0 in range(0, total, _poly._SEGMENT):
            count = min(_poly._SEGMENT, total - e0)
            yield e0, progression_eval(coeffs, pow(omega, e0, p), omega, count, p)
        return
    rows = power_sequence(power_sequence(omega, m, p), len(coeffs), p) * coeffs
    reduce_in_place(rows, p)
    cols = power_sequence(power_sequence(pow(omega, m, p), m, p), len(coeffs), p)
    step = max(1, _verify._GEMM_CELLS // m)
    for j0 in range(0, m, step):
        yield m * j0, _matmul_mod(rows, cols[j0 : j0 + step].T, p).T.ravel()


def shift_values(values: np.ndarray, writes, ctx: FieldCtx, m: int) -> np.ndarray:
    """Fingerprint values of the m x m pair at omega^0..omega^(k-1) moved
    by writes (i, j, old, new) into C: each write moves value u by
    -delta * (omega^e)^u, e = i + m*j. One GEMM per chunk of writes, whose
    Vandermonde rows stay within _GEMM_CELLS cells (2 MiB in int64: t may
    reach 2^16 writes with 2^17 values each)."""
    p, k = ctx.p, len(values)
    moves = [(pow(ctx.omega, i + m * j, p), (new - old) % p)
             for i, j, old, new in writes]
    step = max(1, _verify._GEMM_CELLS // max(k, 1))
    for w0 in range(0, len(moves), step):
        bases, deltas = np.array(moves[w0 : w0 + step], dtype=np.int64).T
        moved = _matmul_mod(deltas, power_sequence(bases, k, p), p)
        values = reduce_in_place(values - moved, p)
    return values


_ENGINES = {"prony": PronyEngine, "quadtree": CorrectionEngine}


def _run_engine(a, b, c_seed, t: int, engine: str, trace=None) -> CorrectionResult:
    if engine not in _ENGINES:
        raise UsageError(f"engine must be one of {sorted(_ENGINES)}, not {engine!r}")
    a, b, c_seed, n = square_matrices(a, b, c_seed)
    if t < 0:
        raise UsageError("t must be >= 0")
    a2, b2, c2, m = pad_to_pow2(a, b, c_seed)
    pair = augment(a2, b2, c2)
    # every write leaves a zero in AB - C, so this basis covers it to the end
    basis = build_crt_basis(m, pair.magnitude_bound())

    corrections: list[tuple[int, int, int, int]] = []
    stats = {"evaluations": 0}
    granularity: dict[SubmatrixId, int] = {}
    # prime -> fingerprint values of the pair, made current after each pass
    known: dict[int, np.ndarray] = {}
    passes = 0
    for ctx in basis.fields:
        worker = _ENGINES[engine](pair, t, ctx, stats, trace=trace)
        passes += 1
        done = len(corrections)
        worker.run(corrections, known)
        for s, tv in worker.tau.items():
            if tv > granularity.get(s, 0):
                granularity[s] = tv
        for f in basis.fields:
            if f.p in known:
                known[f.p] = shift_values(known[f.p], corrections[done:], f, m)
        # integer-level sweep over the full basis; catches nonzeroes that
        # vanish mod this pass's prime. Each write fixes one entry, so under
        # a broken promise with at most 2t wrong entries at most 2t remain,
        # and 2t points refute them. Mod the primes in known, the values
        # shifted by the writes stand in for an evaluation; it adds the rest
        if verify_product(a2, b2, c2, max(2 * t, 1), stats=stats, known=known,
                          basis=basis):
            break
    else:
        raise PromiseViolationError(
            "residual differences remain after all primes; "
            "the <= t promise cannot hold",
            corrections=len(corrections),
        )

    result = IntMatrix(c2.data[:n, :n])
    return CorrectionResult(
        product=result,
        corrections=corrections,
        evaluations=stats["evaluations"],
        max_granularity=max(granularity.values(), default=0),
        granularity_map=granularity,
        prime_passes=passes,
        kernel=kernel_path(stats),
        engine=engine,
    )


def multiply_output_sensitive(
    a, b, t: int, *, engine: str = "prony", trace=None
) -> CorrectionResult:
    """Compute AB exactly under the promise that it has at most t nonzero
    entries; cost scales with t rather than with the dense product. engine
    is "prony" or "quadtree"."""
    a = as_matrix(a)
    zeros = IntMatrix(np.zeros((a.rows, a.rows), dtype=np.int64))
    return _run_engine(a, b, zeros, t, engine, trace)


def correct_product(
    a, b, c_in, t: int, *, engine: str = "prony", trace=None
) -> CorrectionResult:
    """Recover AB from a candidate C differing from it in at most t entries.
    c_in is not mutated; the corrected matrix is returned. engine is
    "prony" or "quadtree"."""
    return _run_engine(a, b, c_in, t, engine, trace)
