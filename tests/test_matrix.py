import numpy as np
import pytest

from matverify import (
    FieldCtx,
    IntMatrix,
    MatrixParseError,
    ResourceLimitError,
    SubmatrixId,
    UsageError,
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
    ctx = FieldCtx(17, 3, order_lb=16)
    rng = seeded_rng(14)
    a = IntMatrix(rng.integers(-9, 10, (4, 4)))
    b = IntMatrix(rng.integers(-9, 10, (4, 4)))
    c = naive_multiply(a, b)
    pair = augment(a, b, c)
    ap, bp = pair.reduced(ctx)
    assert ap.dtype == np.int64 and bp.dtype == np.int64
    assert ((ap @ bp) % 17 == 0).all()
    assert pair.magnitude_bound() >= int(np.abs(c.data).max())
