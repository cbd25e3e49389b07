"""Dense integer matrices with tracked magnitude bounds, text file I/O,
power-of-two padding, quadtree block geometry, and the augmentation that
turns product verification into an all-zeroes test."""

from dataclasses import dataclass

import numpy as np

from .errors import MatrixParseError, ResourceLimitError, UsageError
from .field import FieldCtx, exact_ints, reduce_mod

ENTRY_CAP = 1 << 40    # parse-time bound on |entry|
_ACC_CAP = 1 << 127    # accumulator cap for exact integer products
_I64_SAFE = 1 << 62


class IntMatrix:
    """Row-major signed integer matrix; max_abs upper-bounds every |entry|
    and is maintained on every write."""

    __slots__ = ("data", "max_abs")

    def __init__(self, data, max_abs=None):
        arr = np.asarray(data)
        if arr.ndim != 2 or arr.size == 0:
            raise UsageError("matrix must be 2-dimensional and nonempty")
        if arr.dtype.kind in "bi":
            arr = arr.astype(np.int64, copy=True)
            actual = max(int(arr.max()), -int(arr.min()), 0) if arr.size else 0
        else:   # exact Python ints, so unsigned values do not wrap
            flat = exact_ints(arr, "matrix entries")
            actual = max(abs(v) for v in flat)
            dtype = np.int64 if actual < _I64_SAFE else object
            arr = np.array(flat, dtype=dtype).reshape(arr.shape)
        self.data = arr
        self.max_abs = int(max_abs) if max_abs is not None else actual
        if self.max_abs < actual:
            raise UsageError("max_abs below an actual entry magnitude")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def get(self, i: int, j: int) -> int:
        return int(self.data[i, j])

    def set(self, i: int, j: int, value: int) -> None:
        value = int(value)
        if self.data.dtype != object and not -_I64_SAFE < value < _I64_SAFE:
            self.data = self.data.astype(object)
        self.data[i, j] = value
        if abs(value) > self.max_abs:
            self.max_abs = abs(value)

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.data, max_abs=self.max_abs)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.array_equal(self.data, other.data)
        )

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, max_abs={self.max_abs})"


def as_matrix(x) -> IntMatrix:
    return x if isinstance(x, IntMatrix) else IntMatrix(x)


def read_matrix(path) -> IntMatrix:
    """Parse the text format: optional '#' comments, a 'ROWS COLS' header,
    then ROWS lines of COLS signed decimal integers."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")

    idx = 0
    while idx < len(lines) and lines[idx].lstrip().startswith("#"):
        idx += 1
    if idx >= len(lines) or not lines[idx].strip():
        raise MatrixParseError("missing header", idx + 1)
    head = lines[idx].split()
    if len(head) != 2:
        raise MatrixParseError("header must be 'ROWS COLS'", idx + 1)
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise MatrixParseError("header must hold two integers", idx + 1) from None
    if rows < 1 or cols < 1:
        raise MatrixParseError("dimensions must be positive", idx + 1)

    # nothing is allocated for the header's shape until every line holds
    # its entries, so a bogus header fails with its line number
    parsed = []
    for r in range(rows):
        ln = idx + 1 + r
        if ln >= len(lines):
            raise MatrixParseError("unexpected end of file", ln + 1)
        toks = lines[ln].split()
        if len(toks) != cols:
            raise MatrixParseError(f"expected {cols} entries, got {len(toks)}", ln + 1)
        row = []
        for tok in toks:
            try:
                v = int(tok)
            except ValueError:
                raise MatrixParseError(f"non-integer token {tok!r}", ln + 1) from None
            if not -ENTRY_CAP < v < ENTRY_CAP:
                raise MatrixParseError("entry magnitude exceeds 2^40", ln + 1)
            row.append(v)
        parsed.append(np.array(row, dtype=np.int64))
    for extra in range(idx + 1 + rows, len(lines)):
        if lines[extra].strip():
            raise MatrixParseError("unexpected trailing content", extra + 1)
    return IntMatrix(np.array(parsed))


def write_matrix(path, m: IntMatrix) -> None:
    m = as_matrix(m)
    out = [f"{m.rows} {m.cols}"]
    for r in range(m.rows):
        out.append(" ".join(str(int(v)) for v in m.data[r]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def exact_dot(x: np.ndarray, y: np.ndarray, x_max: int, y_max: int):
    """x @ y over the integers, for entries bounded by x_max and y_max: in
    int64 when no partial sum can reach 2^62, in Python ints otherwise."""
    if (x.shape[-1] * x_max * y_max < _I64_SAFE
            and x.dtype != object and y.dtype != object):
        return x @ y
    return np.dot(x.astype(object), y.astype(object))


def naive_multiply(a, b) -> IntMatrix:
    """Exact integer product; the cubic ground-truth oracle."""
    a, b = as_matrix(a), as_matrix(b)
    if a.cols != b.rows:
        raise UsageError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    if a.cols * a.max_abs * b.max_abs >= _ACC_CAP:
        raise ResourceLimitError("product would overflow the 128-bit budget")
    return IntMatrix(exact_dot(a.data, b.data, a.max_abs, b.max_abs))


def next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def square_matrices(*mats):
    """The arguments as IntMatrix, checked to be n x n for one n, followed
    by n. Error messages name them A, B, C in order."""
    mats = [as_matrix(m) for m in mats]
    n = mats[0].rows
    for m, name in zip(mats, "ABC"):
        if m.rows != n or m.cols != n:
            raise UsageError(f"{name} must be {n}x{n}")
    return (*mats, n)


def pad_to_pow2(a, b, c) -> tuple[IntMatrix, IntMatrix, IntMatrix, int]:
    """Zero-pad square same-size A, B, C to the next power of two. Padding
    adds no nonzeroes to AB - C."""
    *mats, n = square_matrices(a, b, c)
    m = next_pow2(n)
    out = []
    for src in mats:
        buf = np.zeros((m, m), dtype=src.data.dtype)
        buf[:n, :n] = src.data
        out.append(IntMatrix(buf, max_abs=src.max_abs))
    return out[0], out[1], out[2], m


@dataclass(frozen=True)
class SubmatrixId:
    """A canonical (quadtree-aligned) square block: rows and columns both
    start at multiples of side, side a power of two."""

    i_start: int
    j_start: int
    side: int

    def __post_init__(self):
        if self.side < 1 or self.side & (self.side - 1):
            raise UsageError("side must be a positive power of two")
        if self.i_start < 0 or self.j_start < 0:
            raise UsageError("block start must be nonnegative")
        if self.i_start % self.side or self.j_start % self.side:
            raise UsageError("block is not grid-aligned")

    @property
    def is_leaf(self) -> bool:
        return self.side == 1

    def split(self) -> tuple["SubmatrixId", ...]:
        """Four children in fixed order (1,1), (1,2), (2,1), (2,2)."""
        if self.side < 2:
            raise UsageError("cannot split a 1x1 block")
        h = self.side // 2
        i0, j0 = self.i_start, self.j_start
        return (
            SubmatrixId(i0, j0, h),
            SubmatrixId(i0, j0 + h, h),
            SubmatrixId(i0 + h, j0, h),
            SubmatrixId(i0 + h, j0 + h, h),
        )

    def contains(self, i: int, j: int) -> bool:
        return (
            self.i_start <= i < self.i_start + self.side
            and self.j_start <= j < self.j_start + self.side
        )

    def child_containing(self, i: int, j: int) -> "SubmatrixId":
        for child in self.split():
            if child.contains(i, j):
                return child
        raise UsageError(f"({i},{j}) outside block {self}")


class AugmentedPair:
    """The pair (A | C), (B ; -I): its product is AB - C entrywise, so C
    equals AB exactly when the pair multiplies to all zeroes.

    C is held by reference: entries written to C later are immediately
    visible through the left factor.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: IntMatrix, b: IntMatrix, c: IntMatrix):
        if a.cols != b.rows:
            raise UsageError("inner dimensions of A and B differ")
        if c.rows != a.rows or c.cols != b.cols:
            raise UsageError("C must be shaped rows(A) x cols(B)")
        if a.rows != b.cols:
            raise UsageError("the augmented product must be square")
        self.a = a
        self.b = b
        self.c = c

    @property
    def side(self) -> int:
        return self.a.rows

    def magnitude_bound(self) -> int:
        """Upper bound on |entry| of the augmented product, valid even after
        C is overwritten with true inner products during correction."""
        prod = self.a.cols * self.a.max_abs * self.b.max_abs
        return max(prod + max(self.c.max_abs, prod), 1)

    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """Explicit (A | C) and (B ; -I) arrays, for oracles and audits."""
        n = self.a.cols
        left = np.hstack([self.a.data, self.c.data])
        eye = -np.eye(n, dtype=np.int64)
        if self.b.data.dtype == object:
            eye = eye.astype(object)
        right = np.vstack([self.b.data, eye])
        return left, right

    def reduced(self, ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
        """(A | C) and (B ; -I) reduced mod p as int64 arrays."""
        p = ctx.p
        n = self.a.cols
        left = np.hstack([reduce_mod(self.a.data, p), reduce_mod(self.c.data, p)])
        right = np.zeros((2 * n, n), dtype=np.int64)
        right[:n] = reduce_mod(self.b.data, p)
        np.fill_diagonal(right[n:], p - 1)
        return left, right


def augment(a, b, c) -> AugmentedPair:
    """Build the live augmented pair for AB - C."""
    return AugmentedPair(as_matrix(a), as_matrix(b), as_matrix(c))
