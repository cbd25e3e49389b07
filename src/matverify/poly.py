"""Univariate polynomials over F_p: multiplication, evaluation at
arbitrary points by Horner's scheme vectorised over the points, and batch
evaluation along geometric progressions by the chirp transform. The chirp
tables (kernel spectrum, inverse chirp) are cached per (p, ratio,
transform length, limb plan) in one bounded LRU; a ProgressionPlan adds
the scales of one progression and returns raw outputs, which callers that
sum many rows post-scale once, and progression_plan keeps the plans of
transforms up to _PLAN_LENGTH points in a second bounded LRU. The chirp
and poly_mul run on one exact float64 FFT convolution of small-width
limbs: both operands hold balanced residues in [-p/2, p/2], and the limb
count follows from a rounding bound on their 2-norms. Moduli are below
field.WORD = 2^31, so residue products fit in int64 and all arithmetic
runs on int64 arrays."""

from functools import lru_cache
from math import sqrt

import numpy as np

from .errors import InternalCheckError, ResourceLimitError, UsageError
from .field import FieldCtx, power_sequence, reduce_in_place, reduce_mod
from .matrix import next_pow2

_SEGMENT = 1 << 15     # progression points per transform, unless rows are longer
_FFT_LIMIT = 1 << 22   # longest transform the kernel allocates
_CHUNK_POINTS = 1 << 15  # rows x transform length per batch: bounds the workspace
# longest transform of a cached plan. Such a plan (one segment) holds and
# pins at most 6 * 2^13 cells, 384 KiB at three limbs, and its lead powers
# at most 2^15 + 2^13 more, so the 32 cached plans stay within 22 MiB;
# longer plans, whose tables grow with the count, are built per call
_PLAN_LENGTH = 1 << 13


class Poly:
    """Dense coefficient vector over F_p; index i holds the X^i coefficient.

    Canonical form: reduced into [0, p) with no trailing zero (the zero
    polynomial keeps one zero coefficient). Treat instances as immutable.
    """

    __slots__ = ("coeffs", "ctx")

    def __init__(self, coeffs, ctx: FieldCtx):
        arr = np.asarray(coeffs)   # reduce_mod returns a new array
        if arr.ndim != 1:
            raise UsageError("coefficients must be one-dimensional")
        arr = reduce_mod(arr, ctx.p)
        nz = np.nonzero(arr)[0]
        self.coeffs = arr[: int(nz[-1]) + 1] if nz.size else np.zeros(1, np.int64)
        self.ctx = ctx

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx.p == other.ctx.p and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.ctx.p, self.coeffs.tobytes()))

    def __repr__(self):
        return f"Poly({self.coeffs.tolist()}, p={self.ctx.p})"


def _check_length(length: int) -> None:
    if length > _FFT_LIMIT:
        raise ResourceLimitError(
            f"transform length {length} exceeds the limit {_FFT_LIMIT}"
        )


def _limb_plan(p: int, length: int, support: int) -> tuple[int, int]:
    """Fewest limbs, and their bit width, that make a float64 FFT
    convolution of length `length` exact when both operands hold balanced
    residues in [-p/2, p/2] and one of them has at most `support` nonzero
    entries.

    Percival's bound for an FFT convolution of x and y of length L = 2^m
    is about |x|_2 * |y|_2 * eps * (13m + 3) to first order, for eps =
    2^-53 and twiddle factors correct to eps; a length of 3 * 2^a or 5 *
    2^a takes the plan of the power of two above it (a radix-3 stage counts
    as two radix-2 stages, a radix-5 stage as three). With one limb, |x|_2
    * |y|_2 <= sqrt(support * L) * (p // 2)^2. With several, every limb is
    bounded by 2^width (the top limb of a balanced residue is an arithmetic
    shift, so it stays within 2^width too), so one limb product has 2-norms
    below L * 4^width, and one output weight sums up to `limbs` of them. The plan
    keeps the bound below 1/4: rounding is then exact, the exact sums stay
    below 2^47 where a residual shows, and the check in _spectral_product
    does not fire on a correct transform.
    """
    bits = (p - 1).bit_length()
    length = next_pow2(length)
    m = max(length.bit_length() - 1, 1)
    scale = (13 * m + 3) * 2.0**-53
    if sqrt(support * length) * (p // 2) ** 2 * scale < 0.25:
        return 1, bits
    for limbs in range(2, bits + 1):
        width = -(-bits // limbs)
        if limbs * length * 4**width * scale < 0.25:
            return limbs, width
    raise ResourceLimitError(f"no exact limb split at transform length {length}")


def _balanced(x: np.ndarray, p: int) -> np.ndarray:
    """The int64 integers x, |x| < 2^62, reduced mod p to their
    representatives in [-p/2, p/2] in place, as (x + p//2) mod p - p//2,
    and returned."""
    x += p // 2
    reduce_in_place(x, p)
    x -= p // 2
    return x


def _limbs(x: np.ndarray, limbs: int, width: int) -> list[np.ndarray]:
    """Limbs of x, low first, with sum_j limb_j * 2^(width*j) = x: x itself
    for one limb. The low limbs are masked into [0, 2^width); the top limb
    is an arithmetic shift, so it carries the sign of a balanced residue."""
    if limbs == 1:
        return [x]
    mask = (1 << width) - 1
    low = [(x >> (width * j)) & mask for j in range(limbs - 1)]
    return low + [x >> (width * (limbs - 1))]


def _limb_spectra(x: np.ndarray, length: int, plan: tuple[int, int],
                  work: np.ndarray | None = None) -> list[np.ndarray]:
    """rfft, zero-padded to `length`, of each limb of the balanced residues
    x (taken along the last axis), split by the (limbs, width) plan. work,
    if given, is a float64 array of shape (limbs,) + x.shape[:-1] +
    (length,), zero from column x.shape[-1] on: each limb is written into
    its slice there, and the transform reads that in place of a padded
    float64 copy of its own."""
    parts = _limbs(x, *plan)
    if work is not None:
        for slot, part in zip(work, parts):
            slot[..., : part.shape[-1]] = part
        parts = work
    return [np.fft.rfft(part, length) for part in parts]


def _spectral_product(xs, ys, length: int, lo: int, hi: int, p: int,
                      plan: tuple[int, int]) -> np.ndarray:
    """Entries [lo, hi) mod p of the cyclic convolution of two balanced
    residue vectors (or batches of them) given by their limb spectra under
    the (limbs, width) plan.

    Output weight s sums the limb products with i + j = s; each weight is
    transformed back, rounded, checked to lie within 1/4 of an integer, and
    folded in with the factor 2^(width*s) mod p, all in place. xs has the
    output's shape and is consumed: xs[i] takes the product of its last
    weight, i + limbs - 1 (with one limb, the only one).
    """
    limbs, width = plan
    for s in range(2 * limbs - 1):
        i0 = max(0, s - limbs + 1)
        last = xs[i0] if s == i0 + limbs - 1 else None
        spec = np.multiply(xs[i0], ys[s - i0], out=last)
        for i in range(i0 + 1, min(s, limbs - 1) + 1):
            spec += xs[i] * ys[s - i]
        z = np.fft.irfft(spec, length)[..., lo:hi]
        r = np.rint(z)
        z -= r
        if z.size and max(z.max(), -z.min()) >= 0.25:
            raise InternalCheckError(
                f"FFT rounding residual above 1/4 (length {length}, p {p})"
            )
        v = reduce_in_place(r.astype(np.int64), p)
        if s:
            v *= pow(2, width * s, p)
            v += out
            reduce_in_place(v, p)
        out = v
    return out


def poly_mul(f: Poly, g: Poly) -> Poly:
    """Exact product over F_p."""
    if f.ctx.p != g.ctx.p:
        raise UsageError("mismatched field contexts")
    p = f.ctx.p
    total = len(f.coeffs) + len(g.coeffs) - 1
    length = fft_length(total)
    _check_length(length)
    plan = _limb_plan(p, length, min(len(f.coeffs), len(g.coeffs)))
    xs = _limb_spectra(_balanced(f.coeffs.copy(), p), length, plan)
    ys = _limb_spectra(_balanced(g.coeffs.copy(), p), length, plan)
    return Poly(_spectral_product(xs, ys, length, 0, total, p, plan), f.ctx)


def horner_eval(f: Poly, x: int) -> int:
    """Reference single-point evaluation."""
    p = f.ctx.p
    x = int(x) % p
    acc = 0
    for c in f.coeffs[::-1]:
        acc = (acc * x + int(c)) % p
    return acc


def multipoint_eval(f: Poly, points) -> list[int]:
    """f at every point, reduced mod p, by Horner's scheme run across all
    points at once. Points along a geometric progression go through
    progression_eval instead."""
    p = f.ctx.p
    pts = np.array([int(x) % p for x in points], dtype=np.int64)
    acc = np.zeros(len(pts), dtype=np.int64)
    for c in f.coeffs[::-1]:
        acc = reduce_in_place(acc * pts + int(c), p)
    return [int(v) for v in acc]


@lru_cache(maxsize=64)
def _chirp(p: int, ratio: int, length: int, plan: tuple[int, int]):
    """Chirp table of a nonzero ratio at one transform length and limb
    plan: the limb spectra of the kernel ratio^T(k) as balanced residues,
    and the inverse chirp ratio^-T(k), for k < length; all read-only."""
    kernel = _triangular_powers(ratio, length, p)
    inv = _triangular_powers(pow(ratio, -1, p), length, p)
    spectrum = _limb_spectra(_balanced(kernel, p), length, plan)
    return [_frozen(s) for s in spectrum], _frozen(inv)


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a cached table is shared by every caller."""
    a.flags.writeable = False
    return a


def _triangular_powers(base: int, length: int, p: int) -> np.ndarray:
    """base^T(k) mod p for k < length, T(k) = k(k+1)/2, grown by doubling."""
    out = np.ones(1, dtype=np.int64)
    while len(out) < length:
        k = len(out)
        # base^T(k + j) = base^T(j) * base^T(k) * (base^k)^j
        cross = power_sequence(pow(base, k, p), k, p) * pow(base, k * (k + 1) // 2, p)
        reduce_in_place(cross, p)
        cross *= out
        out = np.concatenate([out, reduce_in_place(cross, p)])
    return out[:length]


def fft_length(x: int) -> int:
    """The least 2^a, 3 * 2^a or 5 * 2^a at or above x >= 1 (below 4/3 x)."""
    return min(f * next_pow2(-(-x // f)) for f in (1, 3, 5))


def _segment(n: int, count: int) -> tuple[int, int]:
    """Progression points per transform and the transform length for rows
    of n coefficients. The least smooth length of at least n + seg - 1
    leaves the kept outputs [n - 1, n - 1 + seg) free of wraparound."""
    seg = min(int(count), max(n, _SEGMENT))
    length = fft_length(n + seg - 1)
    _check_length(length)
    return seg, length


class ProgressionPlan:
    """The row-independent half of the chirp transform: evaluation of rows
    of at most n coefficients (residues in [0, p)) at the points x_u =
    first * ratio^u, u = 0..count-1, for a nonzero ratio and count >= 1.

    The identity i*u = T(i+u) - T(i) - T(u) splits each value as

        sum_i c[i] * x_u^i = post[u] * Z[u],
        Z[u] = sum_i (c[i] * scale[i]) * kernel[i + u - u0],

    for the points of one segment starting at u0, with scale[i] = (first *
    ratio^u0)^i * ratio^-T(i), post[u] = ratio^-T(u - u0) and the kernel
    ratio^T(k), whose spectrum the cached chirp table holds. The plan holds
    each segment's scale and the post-scale of every point, all read-only,
    so one plan serves any number of callers (progression_plan caches the
    short ones); raw() returns the unscaled Z of a block of rows, so a
    caller that multiplies and sums the values of many rows applies post
    once, to the sum. block_rows rows go through one batch of transforms.

    With lead, the plan also holds lead[k, u] = (x_u^n)^k for k <=
    block_rows, read-only: one polynomial of J*n coefficients, cut into J
    rows of n, is then summed from its rows' values by Horner's scheme in
    x_u^n, a block of rows at a time.
    """

    __slots__ = ("p", "n", "length", "plan", "spectrum", "segments", "post", "block_rows",
                 "lead")

    def __init__(self, n: int, first: int, ratio: int, count: int, p: int,
                 lead: bool = False):
        ratio %= p
        if ratio == 0:
            raise UsageError("the chirp transform needs a nonzero ratio")
        if count < 1:
            raise UsageError("a progression plan needs count >= 1")
        seg, length = _segment(n, count)
        # rows hold at most n nonzero coefficients
        self.plan = _limb_plan(p, length, n)
        self.spectrum, inv = _chirp(p, ratio, length, self.plan)
        self.p, self.n, self.length = p, n, length
        self.block_rows = max(1, _CHUNK_POINTS // length)
        self.segments = []   # (u0, cnt, scale) for each segment of points
        for u0 in range(0, count, seg):
            scale = power_sequence(first * pow(ratio, u0, p), n, p)
            scale *= inv[:n]
            self.segments.append((u0, min(seg, count - u0), _frozen(reduce_in_place(scale, p))))
        self.post = _frozen(np.concatenate([inv[:cnt] for _, cnt, _ in self.segments]))
        self.lead = None
        if lead:
            y = power_sequence(pow(ratio, n, p), count, p) * pow(first, n, p)
            y = power_sequence(reduce_in_place(y, p), self.block_rows + 1, p)
            self.lead = _frozen(np.ascontiguousarray(y.T))

    def raw(self, rows: np.ndarray) -> np.ndarray:
        """Z for every row of a 2-d int64 array of entries below p in
        magnitude, zero from column n on: shape (rows, count), in [0, p).

        Nonzero rows are scaled, balanced and correlated against the kernel
        by batched float64 FFTs, block_rows at a time so the workspace stays
        bounded; all-zero rows give zeros. Each block's rows go, reversed,
        into one zero-padded float64 workspace of this call, sliced for a
        short block, which the forward transforms read.
        """
        p, n = self.p, self.n
        out = np.zeros((len(rows), len(self.post)), dtype=np.int64)
        live = np.nonzero(rows.any(axis=1))[0]
        # columns n on stay zero; a block writes its rows' first n columns
        work = np.zeros((self.plan[0], min(self.block_rows, live.size), self.length))
        for u0, cnt, scale in self.segments:
            for r0 in range(0, live.size, self.block_rows):
                idx = live[r0 : r0 + self.block_rows]
                b = rows[idx, :n]   # a copy, by the index array
                b *= scale
                xs = _limb_spectra(_balanced(b, p)[:, ::-1], self.length, self.plan,
                                   work[:, : len(idx)])
                out[idx, u0 : u0 + cnt] = _spectral_product(
                    xs, self.spectrum, self.length, n - 1, n - 1 + cnt, p, self.plan
                )
        return out


def progression_plan(n: int, first: int, ratio: int, count: int, p: int,
                     lead: bool = False) -> ProgressionPlan:
    """The ProgressionPlan of these arguments. Plans on transforms of up to
    _PLAN_LENGTH points come from a bounded LRU whose key holds _SEGMENT
    and _CHUNK_POINTS as they read now, since a plan's segments and
    block_rows follow them; longer ones are built per call. The transform
    length is checked against _FFT_LIMIT before the lookup."""
    args = (int(n), int(first) % p, int(ratio) % p, int(count), p, bool(lead))
    if count < 1 or _segment(n, count)[1] > _PLAN_LENGTH:
        return ProgressionPlan(*args)
    return _cached_plan(*args, _SEGMENT, _CHUNK_POINTS)


@lru_cache(maxsize=32)
def _cached_plan(n, first, ratio, count, p, lead, segment, chunk_points) -> ProgressionPlan:
    # segment and chunk_points only key the entry: the plan reads them itself
    return ProgressionPlan(n, first, ratio, count, p, lead)


def progression_eval(coeffs, first: int, ratio: int, count: int, p: int) -> np.ndarray:
    """Values sum_i c[i] * (first * ratio^u)^i for u = 0..count-1, for one
    coefficient vector (shape (count,)) or for every row of a 2-d array
    (shape (rows, count)). Coefficients are int64 below p in magnitude:
    Poly and matrix.field_form bring them there once at the public entry,
    so the row blocks that callers feed through here are not scanned again.

    The ratio must be nonzero mod p. The chirp transform of the cached
    ProgressionPlan sized to the rows' last nonzero column computes the
    values, and each raw output is post-scaled here.
    """
    if count < 0:
        raise UsageError("count must be >= 0")
    coeffs = np.asarray(coeffs)
    if coeffs.ndim not in (1, 2):
        raise UsageError("coefficients must be one- or two-dimensional")
    rows = np.atleast_2d(coeffs)
    shape = coeffs.shape[:-1] + (count,)
    first = int(first) % p
    ratio = int(ratio) % p
    if ratio == 0:
        raise UsageError("the chirp transform needs a nonzero ratio")
    rows = rows.astype(np.int64, copy=False)
    used = np.nonzero(rows.any(axis=0))[0]
    if count == 0 or not used.size:
        return np.zeros(shape, dtype=np.int64)
    plan = progression_plan(int(used[-1]) + 1, first, ratio, count, p)
    out = plan.raw(rows)
    out *= plan.post
    return reduce_in_place(out, p).reshape(shape)
