"""Univariate polynomials over F_p: multiplication, long division,
multipoint evaluation, and batch evaluation along geometric progressions by
the chirp transform, whose tables are cached per (p, ratio, transform
length) in one bounded LRU. Both fast paths run on one exact float64 FFT
convolution of small-width limbs: one operand holds residues in [0, p), the
other balanced residues in [-p/2, p/2], and the limb count follows from a
rounding bound on those true magnitudes. Moduli are below field.WORD = 2^31,
so residue products fit in int64 and all arithmetic runs on int64 arrays."""

from functools import lru_cache

import numpy as np

from .errors import InternalCheckError, ResourceLimitError, UsageError
from .field import FieldCtx, geometric_fill, power_sequence, reduce_mod
from .matrix import next_pow2

_TREE_THRESHOLD = 64   # below this, per-point Horner beats the subproduct tree
_SEGMENT = 1 << 15     # progression points per transform, unless rows are longer
_FFT_LIMIT = 1 << 22   # longest transform the kernel allocates
_CHUNK_POINTS = 1 << 14  # rows x transform length per batch: bounds the workspace


class Poly:
    """Dense coefficient vector over F_p; index i holds the X^i coefficient.

    Canonical form: reduced into [0, p) with no trailing zero (the zero
    polynomial keeps one zero coefficient). Treat instances as immutable.
    """

    __slots__ = ("coeffs", "ctx")

    def __init__(self, coeffs, ctx: FieldCtx):
        arr = np.array(coeffs)     # a copy: the caller's array stays its own
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


def _same_ctx(f: Poly, g: Poly) -> None:
    if f.ctx.p != g.ctx.p:
        raise UsageError("mismatched field contexts")


def _check_length(length: int) -> None:
    if length > _FFT_LIMIT:
        raise ResourceLimitError(
            f"transform length {length} exceeds the limit {_FFT_LIMIT}"
        )


@lru_cache(maxsize=256)
def _limb_plan(p: int, length: int) -> tuple[int, int]:
    """Fewest limbs, and their bit width, that make a float64 FFT
    convolution of length `length` exact when one operand holds residues in
    [0, p) and the other balanced residues in [-p/2, p/2].

    Percival's bound for an FFT convolution of length L = 2^m whose inputs
    are bounded by A and B is about L*A*B*eps*(13m + 3) to first order, for
    eps = 2^-53 and twiddle factors correct to eps. A and B are the largest
    limb magnitudes: p - 1 and p // 2 for a single limb, 2^width each for
    several (the top limb of a balanced residue is an arithmetic shift, so
    it stays within 2^width too). One output weight sums up to `limbs` limb
    products, which multiplies A*B by that factor. The plan keeps the bound
    below 1/4: rounding is then exact, the exact sums stay below 2^47 where
    a residual shows, and the check in _spectral_product does not fire on a
    correct transform.
    """
    bits = (p - 1).bit_length()
    m = max(length.bit_length() - 1, 1)
    for limbs in range(1, bits + 1):
        width = -(-bits // limbs)
        mags = (p - 1) * (p // 2) if limbs == 1 else 4**width
        if limbs * length * mags * (13 * m + 3) * 2.0**-53 < 0.25:
            return limbs, width
    raise ResourceLimitError(f"no exact limb split at transform length {length}")


def _balanced(x: np.ndarray, p: int) -> np.ndarray:
    """Residues in [0, p) mapped to their representatives in [-p/2, p/2]."""
    return np.where(x > p // 2, x - p, x)


def _limbs(x: np.ndarray, limbs: int, width: int) -> list[np.ndarray]:
    """Limbs of x, low first, with sum_j limb_j * 2^(width*j) = x. The low
    limbs are masked into [0, 2^width); the top limb is an arithmetic shift,
    so it carries the sign of a balanced residue."""
    mask = (1 << width) - 1
    low = [(x >> (width * j)) & mask for j in range(limbs - 1)]
    return low + [x >> (width * (limbs - 1))]


def _limb_spectra(x: np.ndarray, length: int, p: int) -> list[np.ndarray]:
    """rfft, zero-padded to `length`, of each limb of the residues x (taken
    along the last axis); x may hold balanced residues."""
    return [np.fft.rfft(part, length) for part in _limbs(x, *_limb_plan(p, length))]


def _spectral_product(xs, ys, length: int, lo: int, hi: int, p: int) -> np.ndarray:
    """Entries [lo, hi) mod p of the cyclic convolution of two residue
    vectors (or batches of them) given by their limb spectra.

    Output weight s sums the limb products with i + j = s; each weight is
    transformed back, rounded, checked to lie within 1/4 of an integer, and
    folded in with the factor 2^(width*s) mod p.
    """
    limbs, width = _limb_plan(p, length)
    for s in range(2 * limbs - 1):
        pairs = range(max(0, s - limbs + 1), min(s, limbs - 1) + 1)
        spec = sum(xs[i] * ys[s - i] for i in pairs)
        z = np.fft.irfft(spec, length)[..., lo:hi]
        r = np.rint(z)
        if z.size and np.abs(z - r).max() >= 0.25:
            raise InternalCheckError(
                f"FFT rounding residual above 1/4 (length {length}, p {p})"
            )
        v = r.astype(np.int64) % p
        out = v if s == 0 else (out + v * pow(2, width * s, p)) % p
    return out


def poly_mul(f: Poly, g: Poly) -> Poly:
    """Exact product over F_p."""
    _same_ctx(f, g)
    p = f.ctx.p
    total = len(f.coeffs) + len(g.coeffs) - 1
    length = next_pow2(total)
    _check_length(length)
    xs = _limb_spectra(f.coeffs, length, p)
    ys = _limb_spectra(_balanced(g.coeffs, p), length, p)
    return Poly(_spectral_product(xs, ys, length, 0, total, p), f.ctx)


def poly_divrem(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with f = q*g + r and deg r < deg g."""
    _same_ctx(f, g)
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    p = f.ctx.p
    dg = g.degree
    if f.is_zero or f.degree < dg:
        return Poly([0], f.ctx), f
    lead_inv = pow(int(g.coeffs[-1]), -1, p)
    rem = f.coeffs.copy()
    div = g.coeffs
    q = np.zeros(f.degree - dg + 1, dtype=np.int64)
    for i in range(f.degree, dg - 1, -1):
        c = int(rem[i]) * lead_inv % p
        if c:
            q[i - dg] = c
            rem[i - dg : i + 1] = (rem[i - dg : i + 1] - c * div) % p
    return Poly(q, f.ctx), Poly(rem[:dg] if dg else [0], f.ctx)


def horner_eval(f: Poly, x: int) -> int:
    """Reference single-point evaluation."""
    p = f.ctx.p
    x = int(x) % p
    acc = 0
    for c in f.coeffs[::-1]:
        acc = (acc * x + int(c)) % p
    return acc


def horner_many(coeffs, pts: np.ndarray, p: int) -> np.ndarray:
    """Horner's scheme run across a whole vector of points at once."""
    acc = np.zeros(len(pts), dtype=np.int64)
    for c in coeffs[::-1]:
        acc = (acc * pts + int(c)) % p
    return acc


def _linear_product(pts: np.ndarray, ctx: FieldCtx) -> Poly:
    p = ctx.p
    cur = np.array([1], dtype=np.int64)
    for x in pts:
        cur = np.convolve(cur, np.array([(-int(x)) % p, 1], dtype=np.int64)) % p
    return Poly(cur, ctx)


def _subproduct_tree(pts: np.ndarray, ctx: FieldCtx):
    if len(pts) <= _TREE_THRESHOLD:
        return (_linear_product(pts, ctx), None, None, pts)
    mid = len(pts) // 2
    left = _subproduct_tree(pts[:mid], ctx)
    right = _subproduct_tree(pts[mid:], ctx)
    return (poly_mul(left[0], right[0]), left, right, pts)


def _tree_descend(node, f: Poly) -> np.ndarray:
    modulus, left, right, pts = node
    rem = poly_divrem(f, modulus)[1] if f.degree >= modulus.degree else f
    if left is None:
        return horner_many(rem.coeffs, pts, f.ctx.p)
    return np.concatenate([_tree_descend(left, rem), _tree_descend(right, rem)])


def multipoint_eval(f: Poly, points) -> list[int]:
    """f at every point; subproduct-tree remainder cascade above the size
    threshold, per-point Horner below it. Identical values either way."""
    p = f.ctx.p
    pts = np.array([int(x) % p for x in points], dtype=np.int64)
    if pts.size < _TREE_THRESHOLD or f.degree < _TREE_THRESHOLD:
        return [int(v) for v in horner_many(f.coeffs, pts, p)]
    return [int(v) for v in _tree_descend(_subproduct_tree(pts, f.ctx), f)]


@lru_cache(maxsize=64)
def _chirp(p: int, ratio: int, length: int):
    """Chirp table of a nonzero ratio at one transform length: the limb
    spectra of the kernel ratio^T(k) as balanced residues, the inverse chirp
    ratio^-T(k) and the powers ratio^k, for k < length."""
    kernel = _balanced(_triangular_powers(ratio, length, p), p)
    inv = _triangular_powers(pow(ratio, -1, p), length, p)
    return _limb_spectra(kernel, length, p), inv, power_sequence(ratio, length, p)


def _triangular_powers(base: int, length: int, p: int) -> np.ndarray:
    """base^T(k) mod p for k < length, T(k) = k(k+1)/2, grown by doubling."""
    out = np.ones(1, dtype=np.int64)
    while len(out) < length:
        k = len(out)
        # base^T(k + j) = base^T(j) * base^T(k) * (base^k)^j
        cross = power_sequence(pow(base, k, p), k, p) * pow(base, k * (k + 1) // 2, p) % p
        out = np.concatenate([out, out * cross % p])
    return out[:length]


def _segment(n: int, count: int) -> tuple[int, int]:
    """Progression points per transform and the transform length for rows
    of n coefficients. A cyclic length of at least n + seg - 1 leaves the
    kept outputs [n - 1, n - 1 + seg) free of wraparound."""
    seg = min(int(count), max(n, _SEGMENT))
    length = next_pow2(n + seg - 1)
    _check_length(length)
    return seg, length


def rows_per_block(n: int, count: int) -> int:
    """Rows of n coefficients that progression_eval transforms together for
    a progression of count points."""
    return max(1, _CHUNK_POINTS // _segment(n, count)[1])


def progression_eval(coeffs, first: int, ratio: int, count: int, p: int) -> np.ndarray:
    """Values sum_i c[i] * (first * ratio^u)^i for u = 0..count-1, for one
    coefficient vector (shape (count,)) or for every row of a 2-d array
    (shape (rows, count)). Coefficients are residues in [0, p): Poly and
    fingerprint_rep reduce once at the public entry, so the row blocks that
    callers feed through here are not scanned again.

    A nonzero ratio takes the chirp transform: the identity i*u = T(i+u) -
    T(i) - T(u) turns every row into a correlation against the kernel
    ratio^T(0..) of the one cached table per (p, ratio, transform length),
    run as batched float64 FFTs in blocks of rows and of points so the
    workspace stays bounded. Rows with a single nonzero coefficient are
    geometric sequences whose ratios come from the same table. Ratio 0
    leaves at most two distinct points, which Horner evaluates in int64.
    """
    if count < 0:
        raise UsageError("count must be >= 0")
    coeffs = np.asarray(coeffs)
    if coeffs.ndim not in (1, 2):
        raise UsageError("coefficients must be one- or two-dimensional")
    rows = np.atleast_2d(coeffs)
    first = int(first) % p
    ratio = int(ratio) % p
    if ratio == 0:
        pts = power_sequence(ratio, count, p) * first % p
        out = np.empty((len(rows), count), dtype=np.int64)
        for k, row in enumerate(rows):
            out[k] = horner_many(row, pts, p)
        return out.reshape(coeffs.shape[:-1] + (count,))

    rows = rows.astype(np.int64, copy=False)
    out = np.zeros((len(rows), count), dtype=np.int64)
    nnz = np.count_nonzero(rows, axis=1)
    mono = np.nonzero(nnz == 1)[0]
    dense = np.nonzero(nnz > 1)[0]
    if count == 0 or not nnz.any():
        return out.reshape(coeffs.shape[:-1] + (count,))
    n = int(np.nonzero(rows.any(axis=0))[0][-1]) + 1
    seg, length = _segment(n, count)
    kernel, inv, pows = _chirp(p, ratio, length)
    exps = np.argmax(rows[mono] != 0, axis=1)
    lone = rows[mono, exps]
    step = rows_per_block(n, count)
    for u0 in range(0, count, seg):
        cnt = min(seg, count - u0)
        fpow = power_sequence(first * pow(ratio, u0, p), n, p)
        if mono.size:
            geo = np.empty((mono.size, cnt), dtype=np.int64)
            geo[:, 0] = lone * fpow[exps] % p
            out[mono, u0 : u0 + cnt] = geometric_fill(geo, pows[exps][:, None], p)
        scale = fpow * inv[:n] % p
        for r0 in range(0, dense.size, step):
            idx = dense[r0 : r0 + step]
            b = rows[idx, :n] * scale % p
            xs = _limb_spectra(b[:, ::-1], length, p)
            vals = _spectral_product(xs, kernel, length, n - 1, n - 1 + cnt, p)
            out[idx, u0 : u0 + cnt] = vals * inv[:cnt] % p
    return out.reshape(coeffs.shape[:-1] + (count,))


def eval_on_progression(f: Poly, first: int, ratio: int, count: int) -> list[int]:
    """Poly-level wrapper over progression_eval."""
    return [int(v) for v in progression_eval(f.coeffs, first, ratio, count, f.ctx.p)]
