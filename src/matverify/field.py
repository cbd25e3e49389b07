"""Prime-field contexts: deterministic prime search, generator construction,
and CRT bases whose modulus product covers a given integer magnitude bound."""

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import ResourceLimitError, UsageError

_BUDGET_BYTES = 1 << 27      # largest workspace array (~128 MiB): sieve flags
                             # of one byte, subgroup residues of eight
WORD = 1 << 31               # every modulus is below this: residue products fit
                             # in int64, trial division stays below 2^15 steps
_SHORT = 1 << 10             # entries from which reduce_in_place divides


def check_word(p: int) -> None:
    """Refuse a modulus below 2, which has no residues to work with, or of
    WORD or more, whose residue products would overflow int64."""
    if not 2 <= p < WORD:
        raise UsageError(f"modulus {p} is outside [2, 2^31)")


def reduce_in_place(x: np.ndarray, p: int) -> np.ndarray:
    """The int64 array x reduced into [0, p) in place, for entries of any
    sign, and returned: x -= (x // p) * p, which wraps back into [0, p)
    where (x // p) * p wraps past int64. numpy divides by a scalar through
    a precomputed inverse (Granlund & Montgomery, PLDI 1994): on a 21 x 384
    block, one CPU, this took 18 us against 31 us for its % on nonnegative
    entries and 62 us on mixed signs. Below _SHORT entries one % costs less
    than three calls, and runs instead."""
    if x.size < _SHORT:
        return np.remainder(x, p, out=x)
    q = x // p
    q *= p
    x -= q
    return x


def sieve_primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending, via a segmented Eratosthenes sieve."""
    if lo < 2 or hi < lo:
        raise UsageError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    if hi >= 1 << 63:
        raise UsageError("upper bound must fit in a machine word")
    if hi - lo + 1 > _BUDGET_BYTES:
        raise ResourceLimitError(f"sieve range wider than {_BUDGET_BYTES} flags")
    root = isqrt(hi)
    if root + 1 > _BUDGET_BYTES:
        raise ResourceLimitError("base sieve would exceed the memory budget")

    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for q in range(2, isqrt(root) + 1):
        if base[q]:
            base[q * q :: q] = False

    flags = np.ones(hi - lo + 1, dtype=bool)
    for q in np.nonzero(base)[0]:
        q = int(q)
        start = max(q * q, ((lo + q - 1) // q) * q)
        if start <= hi:
            flags[start - lo :: q] = False
    return [int(lo + i) for i in np.nonzero(flags)[0]]


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _cyclic_subgroup(a: int, p: int) -> np.ndarray:
    """All distinct powers of a modulo p, starting at a^0 = 1. The array
    doubles until it meets 1; a doubling past the budget is refused."""
    a %= p
    arr = np.array([1], dtype=np.int64)
    if a == 1:
        return arr
    while True:
        if 2 * arr.nbytes > _BUDGET_BYTES:
            raise ResourceLimitError(
                f"order of {a} mod {p} is at least {len(arr)}: its powers "
                f"outgrow the {_BUDGET_BYTES}-byte budget"
            )
        step = int(arr[-1]) * a % p       # a^len(arr)
        block = reduce_in_place(arr * step, p)
        hits = np.nonzero(block == 1)[0]
        if hits.size:
            return np.concatenate([arr, block[: hits[0]]])
        arr = np.concatenate([arr, block])


@lru_cache(maxsize=256)
def find_generator(p: int) -> int:
    """The least generator of the multiplicative group mod p: the least g
    with g^((p-1)/q) != 1 for every prime q dividing p - 1."""
    if p >= WORD:
        raise ResourceLimitError(f"trial division of {p} exceeds the word-size bound")
    if p < 3 or _prime_factors(p) != [p]:
        raise UsageError(f"{p} is not a prime >= 3")
    cofactors = [(p - 1) // q for q in _prime_factors(p - 1)]
    g = 2
    while any(pow(g, e, p) == 1 for e in cofactors):
        g += 1
    return g


def multiplicative_order(x: int, p: int) -> int:
    """Exhaustively computed order of x in the multiplicative group mod p;
    ResourceLimitError when the powers of x outgrow the memory budget."""
    check_word(p)
    if x % p == 0:
        raise UsageError("0 is not a group element")
    return len(_cyclic_subgroup(x, p))


def exact_ints(arr: np.ndarray, what: str) -> list[int]:
    """Entries of arr as Python ints; a non-integer raises, not truncates."""
    flat = arr.ravel().tolist()
    if not all(isinstance(v, (int, np.integer)) for v in flat):
        raise UsageError(f"{what} must be integers")
    return [int(v) for v in flat]


def reduce_mod(data, p: int) -> np.ndarray:
    """Integer entries reduced into [0, p), as a new int64 array. Unsigned
    and object entries are reduced exactly; a non-integer entry raises
    UsageError. Matrix factors below p in magnitude skip it (see
    matrix.field_form), so it has no fast path for them."""
    data = np.asarray(data)
    if data.dtype.kind not in "bi":
        flat = [v % p for v in exact_ints(data, "entries")]
        return np.array(flat, dtype=np.int64).reshape(data.shape)
    return reduce_in_place(data.astype(np.int64), p)


def power_sequence(base, count: int, p: int) -> np.ndarray:
    """[base^0, base^1, ..., base^(count-1)] mod p, filled by doubling. An
    array of bases gives one such row per base, shape base.shape + (count,):
    the Vandermonde rows of those points."""
    if count < 0:
        raise UsageError("count must be >= 0")
    check_word(p)
    rows = np.shape(base)
    if rows:
        step = reduce_in_place(base[..., None].astype(np.int64), p)
    else:
        step = int(base) % p
    out = np.empty(rows + (count,), dtype=np.int64)
    out[..., :1] = 1 % p
    filled = 1
    while filled < count:
        take = min(filled, count - filled)
        out[..., filled : filled + take] = reduce_in_place(out[..., :take] * step, p)
        # base^(2 * filled)
        step = reduce_in_place(step * step, p) if rows else step * step % p
        filled += take
    return out


@dataclass(frozen=True)
class FieldCtx:
    """A prime p together with an element omega of multiplicative order
    at least order_lb; the arithmetic substrate for every polynomial test."""

    p: int
    omega: int
    order_lb: int = 1

    def __post_init__(self):
        check_word(self.p)
        if not 0 < self.omega < self.p:
            raise UsageError("omega must be a nonzero residue")


@dataclass(frozen=True)
class CrtBasis:
    """Distinct primes whose product exceeds 2*bound, each paired with a
    generator, so field-level zero tests lift to integer zero tests."""

    fields: tuple[FieldCtx, ...]

    @property
    def modulus_product(self) -> int:
        out = 1
        for f in self.fields:
            out *= f.p
        return out


@lru_cache(maxsize=128)
def build_crt_basis(n: int, bound: int) -> CrtBasis:
    """The d smallest primes >= n^2+1 with d minimal s.t. (n^2+1)^d > 2*bound.

    n below 2 is clamped to 2 so the smallest usable prime is 5 and a
    nontrivial omega always exists.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if bound < 1:
        raise UsageError("bound must be >= 1")
    side = max(n, 2)
    base = side * side + 1
    d = 1
    while base**d <= 2 * bound:
        d += 1

    primes: list[int] = []
    lo = base
    span = max(1024, 4 * d)
    while len(primes) < d:
        hi = lo + span - 1
        primes.extend(sieve_primes_in_range(lo, hi))
        lo = hi + 1
        span *= 2
    fields = tuple(
        FieldCtx(p, find_generator(p), order_lb=side * side) for p in primes[:d]
    )
    return CrtBasis(fields=fields)

