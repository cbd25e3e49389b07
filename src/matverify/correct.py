"""Output-sensitive multiplication and product correction.

A quadtree search locates nonzero entries of the augmented product using
cached polynomial test values; every located entry is confirmed by an exact
integer inner product, written into C, and all caches are patched
incrementally along the containing chain rather than recomputed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, PromiseViolationError, UsageError
from .field import FieldCtx, build_crt_basis, power_sequence
from .matrix import (
    AugmentedPair,
    IntMatrix,
    SubmatrixId,
    as_matrix,
    augment,
    exact_dot,
    pad_to_pow2,
    square_matrices,
)
from .verify import (
    FingerprintRep,
    eval_fingerprint_progression,
    kernel_path,
    verify_product,
)


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

    @property
    def correction_count(self) -> int:
        return len(self.corrections)


class CorrectionEngine:
    """Working state for one prime: reduced factors, per-block granularity
    tau, the computed prefix of each block's test values as one residue
    array, and the nested queue of blocks certified to contain a nonzero."""

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

        self.ap, self.bp = pair.reduced(ctx)
        self.root = SubmatrixId(0, 0, m)
        self.t_eff = min(t, m * m)

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
        The factors are already reduced, so their slices go to the kernel
        as they are."""
        i0, j0, side = s.i_start, s.j_start, s.side
        rep = FingerprintRep(
            self.ctx, side, self.ap[i0 : i0 + side].T, self.bp[:, j0 : j0 + side]
        )
        return eval_fingerprint_progression(rep, lo, hi - lo, self.stats, grid=grid)

    def _extend_values(self, s: SubmatrixId, target: int, grid: int = 1) -> None:
        """Extend the stored values of s (grid=1), or of its four children
        (grid=2), to the prefix 0..target-1. Siblings are always extended
        together, so they share one prefix."""
        blocks = s.split() if grid == 2 else (s,)
        have = len(self.vals.get(blocks[0], ()))
        if have >= target:
            return
        fresh = self.scratch_values(s, have, target, grid).reshape(len(blocks), -1)
        for block, row in zip(blocks, fresh):
            self.vals[block] = np.concatenate((self.vals.get(block, row[:0]), row))

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
                self._extend_values(s, target, grid=2)
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
        """Patch the field copy and every cached value on the containing
        chain after C[i, j] changed from old to new. Only the root and the
        children of searched blocks hold values, so the walk stops at the
        first block on the chain without them."""
        p = self.ctx.p
        delta = (new - old) % p
        self.ap[i, self.m + j] = new % p
        s = self.root
        while (stored := self.vals.get(s)) is not None:
            if delta:
                # the write moves the block fingerprint by -delta * X^e
                e = (i - s.i_start) + s.side * (j - s.j_start)
                stored += (p - delta) * power_sequence(
                    pow(self.ctx.omega, e, p), len(stored), p
                )
                stored %= p
            if not stored.any() and s in self.queue:
                self.queue.remove(s)
            if s.is_leaf:
                break
            s = s.child_containing(i, j)

    # -- integer side ----------------------------------------------------

    def exact_inner(self, i: int, j: int) -> int:
        a, b = self.pair.a, self.pair.b
        return int(exact_dot(a.data[i], b.data[:, j], a.max_abs, b.max_abs))

    # -- driver ----------------------------------------------------------

    def run(self, corrections: list, pre_write=None, post_update=None) -> None:
        self._extend_values(self.root, self.t_eff)
        if self.t_eff and self.vals[self.root].any():
            self.queue.append(self.root)
        iteration = 0
        while self.queue:
            s = self.queue[-1]
            i, j, info = self.find_nonzero(s)
            new = self.exact_inner(i, j)
            old = self.pair.c.get(i, j)
            if new == old:
                raise InternalCheckError(
                    f"field-level witness at ({i},{j}) has zero integer value"
                )
            if len(corrections) >= self.t:
                raise PromiseViolationError(
                    f"more than {self.t} differing entries; "
                    f"entry {len(corrections) + 1} found at ({i},{j})",
                    position=(i, j),
                    corrections=len(corrections),
                )
            if pre_write is not None:
                pre_write(self, i, j, old, new)
            corrections.append((i, j, old, new))
            self.pair.c.set(i, j, new)
            self.apply_write(i, j, old, new)
            if post_update is not None:
                post_update(self, i, j)
            if self.trace is not None:
                st = info["start"]
                self.trace.write(
                    f"prime={self.ctx.p} iter={iteration} "
                    f"sub=({st.i_start},{st.j_start},{st.side}) "
                    f"tau={self.tau.get(st, 0)} nu={info['nu']} "
                    f"pos=({i},{j})\n"
                )
            iteration += 1


def _run_engine(
    a, b, c_seed, t: int, trace=None, pre_write=None, post_update=None
) -> CorrectionResult:
    a, b, c_seed, n = square_matrices(a, b, c_seed)
    if t < 0:
        raise UsageError("t must be >= 0")
    a2, b2, c2, m = pad_to_pow2(a, b, c_seed)
    pair = augment(a2, b2, c2)
    basis = build_crt_basis(m, pair.magnitude_bound())

    corrections: list[tuple[int, int, int, int]] = []
    stats = {"evaluations": 0}
    granularity: dict[SubmatrixId, int] = {}
    passes = 0
    for ctx in basis.fields:
        engine = CorrectionEngine(pair, t, ctx, stats, trace=trace)
        passes += 1
        engine.run(corrections, pre_write=pre_write, post_update=post_update)
        for s, tv in engine.tau.items():
            if tv > granularity.get(s, 0):
                granularity[s] = tv
        # integer-level sweep over the full basis; catches nonzeroes that
        # vanish mod this pass's prime
        if verify_product(a2, b2, c2, max(t, 1), stats=stats):
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
    )


def multiply_output_sensitive(
    a, b, t: int, *, trace=None, pre_write=None, post_update=None
) -> CorrectionResult:
    """Compute AB exactly under the promise that it has at most t nonzero
    entries; cost scales with t rather than with the dense product."""
    a = as_matrix(a)
    zeros = IntMatrix(np.zeros((a.rows, a.rows), dtype=np.int64))
    return _run_engine(
        a, b, zeros, t, trace=trace, pre_write=pre_write, post_update=post_update
    )


def correct_product(
    a, b, c_in, t: int, *, trace=None, pre_write=None, post_update=None
) -> CorrectionResult:
    """Recover AB from a candidate C differing from it in at most t entries.
    c_in is not mutated; the corrected matrix is returned."""
    return _run_engine(
        a, b, c_in, t, trace=trace, pre_write=pre_write, post_update=post_update
    )
