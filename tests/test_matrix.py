import tracemalloc

import numpy as np
import pytest

from matverify import (
    FieldCtx,
    IntMatrix,
    MatrixParseError,
    ResourceLimitError,
    SubmatrixId,
    UsageError,
    as_matrix,
    augment,
    naive_multiply,
    pad_to_pow2,
    read_matrix,
    seeded_rng,
    verify_product,
    write_matrix,
)

from helpers import oracle_matmul


def test_naive_golden():
    a = IntMatrix(np.array([[1, 2], [3, 4]]))
    b = IntMatrix(np.array([[5, 6], [7, 8]]))
    assert naive_multiply(a, b).data.tolist() == [[19, 22], [43, 50]]


def test_naive_matches_oracle():
    rng = seeded_rng(3)
    for n in (1, 3, 7, 12):
        a = rng.integers(-50, 50, (n, n))
        b = rng.integers(-50, 50, (n, n))
        assert naive_multiply(a, b).data.tolist() == oracle_matmul(a, b)


def test_naive_wide_entries_use_exact_path():
    big = 1 << 39
    a = IntMatrix(np.array([[big, big], [big, -big]]))
    b = IntMatrix(np.array([[big, 0], [big, big]]))
    got = naive_multiply(a, b)
    assert got.data.tolist() == oracle_matmul(a.data.tolist(), b.data.tolist())
    assert got.max_abs == 2 * big * big


def test_naive_accumulator_cap():
    cap = IntMatrix(np.full((2, 2), (1 << 40) - 1, dtype=np.int64))
    assert naive_multiply(cap, cap).data[0][0] == 2 * ((1 << 40) - 1) ** 2
    # the cap only binds for direct library use with oversized entries;
    # file inputs already stop at the 2^40 entry limit
    huge = IntMatrix(np.array([[1 << 64]], dtype=object))
    with pytest.raises(ResourceLimitError):
        naive_multiply(huge, huge)


def test_matrix_roundtrip(tmp_path):
    rng = seeded_rng(11)
    m = IntMatrix(rng.integers(-(10**9), 10**9, (5, 3)))
    path = tmp_path / "m.mat"
    write_matrix(path, m)
    back = read_matrix(path)
    assert back == m


def test_write_matrix_bytes(tmp_path):
    cap = (1 << 40) - 1
    path = tmp_path / "w.mat"
    write_matrix(path, IntMatrix(np.array([[cap, 0], [-cap, 7]])))
    assert path.read_bytes() == f"2 2\n{cap} 0\n{-cap} 7\n".encode()
    big = 1 << 70
    write_matrix(path, IntMatrix(np.array([[big, -big - 1, 0]], dtype=object)))
    assert path.read_bytes() == f"1 3\n{big} {-big - 1} 0\n".encode()


def test_matrix_format_details(tmp_path):
    path = tmp_path / "ok.mat"
    path.write_text("# produced by hand\n# second comment\n2 3\n1 2 3\n-4 5 -6\n\n")
    m = read_matrix(path)
    assert m.data.tolist() == [[1, 2, 3], [-4, 5, -6]]


@pytest.mark.parametrize(
    "text",
    [
        "2 2\n1 2\n3\n",                      # short row
        "2 2\n1 2\n3 4 5\n",                  # long row
        "2 2\n1 2\n# no comments after header\n3 4\n",
        "1 1\nx\n",                           # not an integer
        "1\n1\n",                             # bad header
        "1 1\n1099511627776\n",               # 2^40 breaches the entry cap
        "2 2\n1 2\n",                         # missing row
        "1 1\n1\ntrailing\n",
    ],
)
def test_matrix_parse_errors(tmp_path, text):
    path = tmp_path / "bad.mat"
    path.write_text(text)
    with pytest.raises(MatrixParseError):
        read_matrix(path)


@pytest.mark.parametrize("text, want", [
    ("2 2\n1_000 2\n3 4\n", [[1000, 2], [3, 4]]),             # int() reads 1_000
    ("2 2\n\u0661\u0662 2\n3 4\n", [[12, 2], [3, 4]]),       # Arabic-Indic digits
    ("1 2\n9223372036854775808 1\n", "line 2: entry magnitude exceeds 2^40"),
    ("2 2\n1 #\n3 4\n", "line 2: non-integer token '#'"),     # a comment
    ("2 2\n1 2\n\n3 4\n", "line 3: expected 2 entries, got 0"),  # a blank line
    ("2 2\n1 2\n3 4\n5 6\n", "line 4: unexpected trailing content"),
    ("2 2\n1 -2\n +3 4 \n\n", [[1, -2], [3, 4]]),          # signs, spaces
])
def test_parse_reads_tokens_as_int_does(tmp_path, text, want):
    # the line walk gives the values int() gives or the line-numbered error
    path = tmp_path / "m.mat"
    path.write_text(text, encoding="utf-8")
    if isinstance(want, list):
        assert read_matrix(path).data.tolist() == want
    else:
        with pytest.raises(MatrixParseError) as err:
            read_matrix(path)
        assert str(err.value) == want


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("# c\n2 2\n1 2\n3 oops\n")
    with pytest.raises(MatrixParseError) as err:
        read_matrix(path)
    assert err.value.line_no == 4


@pytest.mark.parametrize("header", ["3000000000 3000000000", "1 4000000000000000000"])
def test_oversized_header_fails_at_its_first_short_line(tmp_path, header):
    # numpy refuses either shape outright, so a parser that allocates from
    # the header fails with its error instead of the line-numbered one
    path = tmp_path / "big.mat"
    path.write_text(f"{header}\n1 2 3\n")
    with pytest.raises(MatrixParseError) as err:
        read_matrix(path)
    assert err.value.line_no == 2


def test_matrix_refuses_non_integers_and_keeps_unsigned_exact():
    # floats used to be truncated and large unsigned values wrapped, so a
    # C off by 0.5, or one of 2^64 - 1 read as -1, passed verification
    for bad in (np.array([[1.5]]), np.array([[1 + 0j]]), np.array([["1"]]),
                np.array([[1, 2.5]], dtype=object), np.array([[1, "2"]], dtype=object)):
        with pytest.raises(UsageError):
            IntMatrix(bad)
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[5, 6], [7, 8]])
    c = (a @ b).astype(np.float64)
    c[0, 0] += 0.5
    with pytest.raises(UsageError):
        verify_product(a, b, c, 4)
    # unsigned entries keep their value, in object dtype from 2^62 on
    assert not verify_product([[1]], [[-1]], np.array([[2**64 - 1]], dtype=np.uint64), 1)
    m = IntMatrix(np.array([[2**64 - 1, 2**62], [7, 0]], dtype=np.uint64))
    assert m.data.dtype == object and m.get(0, 0) == 2**64 - 1
    assert m.max_abs == 2**64 - 1 and type(m.get(0, 1)) is int
    small = IntMatrix(np.array([[2**62 - 1, 7]], dtype=np.uint64))
    assert small.data.dtype == np.int64 and small.get(0, 0) == 2**62 - 1
    # integer objects of numpy type become Python ints
    mixed = IntMatrix(np.array([[np.int64(3), 2**70]], dtype=object))
    assert [type(v) for v in mixed.data.flat] == [int, int]
    assert IntMatrix(np.array([[True, False]])).data.tolist() == [[1, 0]]


def test_pad_to_pow2():
    rng = seeded_rng(2)
    a = IntMatrix(rng.integers(-5, 5, (5, 5)))
    b = IntMatrix(rng.integers(-5, 5, (5, 5)))
    c = IntMatrix(rng.integers(-5, 5, (5, 5)))
    a2, b2, c2, m = pad_to_pow2(a, b, c)
    assert m == 8
    assert a2.data[:5, :5].tolist() == a.data.tolist()
    assert not a2.data[5:, :].any() and not a2.data[:, 5:].any()
    full = naive_multiply(a2, b2).data
    assert full[:5, :5].tolist() == naive_multiply(a, b).data.tolist()
    assert not full[5:, :].any()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fresh_arrays_are_taken_over_without_a_copy(tmp_path):
    # 512 x 512 int64 is 2 MiB. read_matrix holds the parsed rows and their
    # stack, pad_to_pow2 its three buffers; a copy of any of them on the
    # way into IntMatrix adds another 2 MiB to the peak
    rng = seeded_rng(3)
    n = 512
    nbytes = n * n * 8
    src = rng.integers(-9, 10, (n, n))
    path = tmp_path / "m.txt"
    write_matrix(path, IntMatrix(src))
    m, peak = _traced_peak(lambda: read_matrix(path))
    assert np.array_equal(m.data, src) and m.max_abs == 9
    assert peak < 2 * nbytes + 2 * path.stat().st_size, peak

    mats = [IntMatrix(rng.integers(-9, 10, (n - 12, n - 12))) for _ in range(3)]
    (a2, b2, c2, m2), peak = _traced_peak(lambda: pad_to_pow2(*mats))
    assert m2 == n and np.array_equal(c2.data[: n - 12, : n - 12], mats[2].data)
    assert peak < 3.5 * nbytes, peak

    # the public constructor still copies the caller's array
    own = IntMatrix(src)
    src[0, 0] = 1000
    assert own.get(0, 0) != 1000 and own.max_abs == 9


def test_arrays_that_are_only_read_are_not_copied():
    # verify_product reads its arguments only for the length of the call,
    # so 512 x 512 int64 arrays (2 MiB each) are wrapped, not copied: the
    # probe exit and a full fingerprint at t = n each peak below one of
    # them (the three copies took 6 MiB). augment keeps a copy of an
    # array, since an engine writes the pair's C
    rng = seeded_rng(4)
    n = 512
    a = rng.integers(-9, 10, (n, n))
    b = rng.integers(-9, 10, (n, n))
    c = naive_multiply(a, b).data
    bad = c.copy()
    bad[3, 4] += 1
    assert as_matrix(a).data is a
    assert verify_product(a, b, c, n)     # builds the basis and chirp tables
    for wrong, want in ((bad, False), (c, True)):
        ok, peak = _traced_peak(lambda: verify_product(a, b, wrong, n))
        assert ok is want and peak < a.nbytes, peak
    pair = augment(a, b, c)
    for held, given in zip((pair.a, pair.b, pair.c), (a, b, c)):
        assert not np.shares_memory(held.data, given)
    pair.c.set(0, 0, 10**6)
    assert c[0, 0] != 10**6
    held = IntMatrix(c)
    assert augment(a, b, held).c is held


def test_submatrix_quadtree():
    root = SubmatrixId(0, 0, 8)
    nw, ne, sw, se = root.split()
    assert nw == SubmatrixId(0, 0, 4)
    assert ne == SubmatrixId(0, 4, 4)
    assert sw == SubmatrixId(4, 0, 4)
    assert se == SubmatrixId(4, 4, 4)
    assert root.contains(7, 0)
    assert sw.contains(7, 0) and not se.contains(7, 0)
    assert root.child_containing(5, 6) == se
    leaf = SubmatrixId(3, 5, 1)
    assert leaf.is_leaf
    with pytest.raises(UsageError):
        SubmatrixId(0, 0, 3)
    with pytest.raises(UsageError):
        SubmatrixId(2, 0, 4)


def test_augmented_pair_cancels_exact_product():
    rng = seeded_rng(13)
    a = IntMatrix(rng.integers(-9, 10, (4, 4)))
    b = IntMatrix(rng.integers(-9, 10, (4, 4)))
    c = naive_multiply(a, b)
    pair = augment(a, b, c)
    ap, bp = pair.materialize()
    assert not (ap @ bp).any()
    wrong = IntMatrix(c.data + np.eye(4, dtype=np.int64))
    ap, bp = augment(a, b, wrong).materialize()
    prod = ap @ bp
    assert np.array_equal(prod, -np.eye(4, dtype=np.int64))


def test_augmented_pair_reduction():
    # A and B lie below p = 17 and pass as they are; C does not and is
    # reduced. AB - C vanishes mod 17 on the operands either way
    ctx = FieldCtx(17, 3, order_lb=16)
    rng = seeded_rng(14)
    a = IntMatrix(rng.integers(-9, 10, (4, 4)))
    b = IntMatrix(rng.integers(-9, 10, (4, 4)))
    c = naive_multiply(a, b)
    pair = augment(a, b, c)
    ap, bp, cp, bound = pair.reduced(ctx)
    assert ap.dtype == np.int64 and bp.dtype == np.int64 and cp.dtype == np.int64
    assert ap is a.data and bp is b.data and c.max_abs >= 17
    assert cp.min() >= 0 and cp.max() < 17 and bound == 16
    assert ((ap @ bp - cp) % 17 == 0).all()
    assert pair.magnitude_bound() >= int(np.abs(c.data).max())
    small = augment(a, b, IntMatrix(np.eye(4, dtype=np.int64)))
    assert small.reduced(ctx)[3] == max(a.max_abs, b.max_abs)
    big = IntMatrix(np.array([[2**70, -1], [0, 5]], dtype=object))
    assert big.data.dtype == object
    (_, _, cp, bound) = augment(big, big, big).reduced(ctx)
    assert cp.dtype == np.int64 and cp.tolist() == [[2**70 % 17, 16], [0, 5]]
    assert bound == 16


def _old_bound(a, b, c):
    # n * max|A| * max|B|, doubled: the bound before the 2-norm form
    prod = a.cols * a.max_abs * b.max_abs
    return prod + max(c.max_abs, prod)


@pytest.mark.parametrize("top", [9, (1 << 40) - 1])
def test_magnitude_bound_tight_on_one_full_row_and_column(top):
    # one row of A and one column of B at full magnitude with matching
    # signs meet Cauchy-Schwarz with equality; at 2^40 - 1 the squares
    # are summed in Python ints, at 9 in int64
    n = 8
    rng = seeded_rng(15)
    signs = rng.choice([-1, 1], n)
    a = np.zeros((n, n), dtype=np.int64)
    b = np.zeros((n, n), dtype=np.int64)
    a[3] = top * signs
    b[:, 5] = top * signs
    a, b = IntMatrix(a), IntMatrix(b)
    ab = a.data.astype(object).dot(b.data.astype(object))
    assert ab[3, 5] == n * top * top
    others = rng.integers(-top, top + 1, (n, n)).astype(object)
    for c, tight in ((np.zeros((n, n), dtype=np.int64), True), (-ab, True),
                     (others, False)):
        c = IntMatrix(c)
        bound = augment(a, b, c).magnitude_bound()
        diff = max(abs(v) for v in (ab - c.data.astype(object)).flat)
        assert diff <= bound <= _old_bound(a, b, c)
        assert bound == n * top * top + c.max_abs
        assert (bound == diff) == tight
    # random factors: still sound, and never above the old bound
    for dtype_top in (9, top):
        x = IntMatrix(rng.integers(-dtype_top, dtype_top + 1, (n, n)))
        y = IntMatrix(rng.integers(-dtype_top, dtype_top + 1, (n, n)))
        c = IntMatrix(rng.integers(-dtype_top, dtype_top + 1, (n, n)))
        xy = x.data.astype(object).dot(y.data.astype(object))
        diff = max(abs(v) for v in (xy - c.data.astype(object)).flat)
        assert diff <= augment(x, y, c).magnitude_bound() <= _old_bound(x, y, c)


def test_magnitude_bound_rounds_the_root_up():
    # row norm^2 2, column norm^2 1: the bound is ceil(sqrt(2)) = 2, and
    # the all-zero pair still gets a bound of 1
    a = IntMatrix(np.array([[1, 1], [0, 0]]))
    b = IntMatrix(np.array([[1, 0], [0, 0]]))
    zero = IntMatrix(np.zeros((2, 2), dtype=np.int64))
    assert augment(a, b, zero).magnitude_bound() == 2
    assert augment(zero, zero, zero).magnitude_bound() == 1
