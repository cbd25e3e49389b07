"""Prime-field contexts: deterministic prime search, generator construction,
and CRT bases whose modulus product covers a given integer magnitude bound."""

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import ResourceLimitError, UsageError

_SIEVE_BUDGET = 1 << 27      # flags per segmented-sieve call (~128 MiB)
WORD = 1 << 31               # every modulus is below this: residue products fit
                             # in int64, trial division stays below 2^15 steps


def check_word(p: int) -> None:
    """Refuse a modulus below 2, which has no residues to work with, or of
    WORD or more, whose residue products would overflow int64."""
    if not 2 <= p < WORD:
        raise UsageError(f"modulus {p} is outside [2, 2^31)")


def sieve_primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending, via a segmented Eratosthenes sieve."""
    if lo < 2 or hi < lo:
        raise UsageError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    if hi >= 1 << 63:
        raise UsageError("upper bound must fit in a machine word")
    if hi - lo + 1 > _SIEVE_BUDGET:
        raise ResourceLimitError(f"sieve range wider than {_SIEVE_BUDGET} flags")
    root = isqrt(hi)
    if root + 1 > _SIEVE_BUDGET:
        raise ResourceLimitError("base sieve would exceed the memory budget")

    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for q in range(2, isqrt(root) + 1):
        if base[q]:
            base[q * q :: q] = False

    flags = np.ones(hi - lo + 1, dtype=bool)
    if lo < 2:
        flags[: 2 - lo] = False
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
    """All distinct powers of a modulo p, starting at a^0 = 1."""
    a %= p
    arr = np.array([1], dtype=np.int64)
    if a == 1:
        return arr
    while True:
        step = int(arr[-1]) * a % p       # a^len(arr)
        block = arr * step % p
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
    """Exhaustively computed order of x in the multiplicative group mod p."""
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
    """Integer entries reduced into [0, p) as int64; an int64 array that is
    already reduced passes through uncopied. Unsigned and object entries
    are reduced exactly; a non-integer entry raises UsageError."""
    data = np.asarray(data)
    if data.dtype.kind not in "bi":
        flat = [v % p for v in exact_ints(data, "entries")]
        return np.array(flat, dtype=np.int64).reshape(data.shape)
    if data.dtype == np.int64 and data.size and 0 <= data.min() and data.max() < p:
        return data
    return data.astype(np.int64, copy=False) % p


def geometric_fill(out: np.ndarray, ratio, p: int) -> np.ndarray:
    """Fill out[..., u] = out[..., 0] * ratio^u mod p along the last axis, by
    doubling; ratio is an int or an array that broadcasts against out."""
    filled, step = 1, ratio
    while filled < out.shape[-1]:
        take = min(filled, out.shape[-1] - filled)
        out[..., filled : filled + take] = out[..., :take] * step % p
        step = step * step % p      # ratio^(2 * filled)
        filled += take
    return out


def power_sequence(base: int, count: int, p: int) -> np.ndarray:
    """[base^0, base^1, ..., base^(count-1)] mod p."""
    if count < 0:
        raise UsageError("count must be >= 0")
    check_word(p)
    base %= p
    out = np.empty(count, dtype=np.int64)
    out[:1] = 1 % p
    return geometric_fill(out, base, p)


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

    def powers(self, count: int) -> np.ndarray:
        """omega^0..omega^(count-1)."""
        return power_sequence(self.omega, count, self.p)


@dataclass(frozen=True)
class CrtBasis:
    """Distinct primes whose product exceeds 2*bound, each paired with a
    generator, so field-level zero tests lift to integer zero tests."""

    fields: tuple[FieldCtx, ...]
    bound: int

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
    return CrtBasis(fields=fields, bound=bound)

