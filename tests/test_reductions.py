import numpy as np
import pytest

from matverify import (
    FieldCtx,
    ResourceLimitError,
    UsageError,
    bmm_ones_certificate,
    bmm_zeroes_to_3sum,
    build_crt_basis,
    emit_upit_circuit,
    eval_circuit,
    eval_fingerprint,
    fingerprint_rep,
    seeded_rng,
    serialize_circuit,
    serialize_three_sum,
    three_sum_bruteforce,
)

from helpers import all_boolean_matrices, boolean_matmul, brute_three_sum

F17 = FieldCtx(17, 3, order_lb=16)


def test_ones_certificate_identity():
    eye = np.eye(2, dtype=np.int64)
    cert = bmm_ones_certificate(eye, eye, eye)
    assert cert.ok
    assert cert.witnesses == {(0, 0): 0, (1, 1): 1}


def test_ones_certificate_failure_position():
    a = np.zeros((2, 2), dtype=np.int64)
    c = np.array([[0, 1], [1, 0]], dtype=np.int64)
    cert = bmm_ones_certificate(a, a, c)
    assert not cert.ok
    assert cert.failure == (0, 1)   # first row-major unwitnessed one


def test_ones_certificate_random_matches_oracle():
    rng = seeded_rng(61)
    for _ in range(20):
        a = rng.integers(0, 2, (6, 6))
        b = rng.integers(0, 2, (6, 6))
        c = boolean_matmul(a, b)
        cert = bmm_ones_certificate(a, b, c)
        assert cert.ok
        for (i, j), k in cert.witnesses.items():
            assert a[i, k] == 1 and b[k, j] == 1
            assert not (a[i, :k] & b[:k, j]).any()


def test_rejects_non_boolean():
    bad = np.array([[2, 0], [0, 1]], dtype=np.int64)
    eye = np.eye(2, dtype=np.int64)
    with pytest.raises(UsageError):
        bmm_ones_certificate(bad, eye, eye)
    with pytest.raises(UsageError):
        bmm_zeroes_to_3sum(eye, bad, eye)


def test_ones_certificate_checks_shapes():
    eye2, eye3 = np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)
    tall = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
    with pytest.raises(UsageError):
        bmm_ones_certificate(eye2, eye2, tall)      # C 3x2 against 2x2 factors
    with pytest.raises(UsageError):
        bmm_ones_certificate(np.ones((2, 3), dtype=np.int64), eye2, eye2)
    with pytest.raises(UsageError):
        bmm_ones_certificate(eye3, eye3, eye2)      # C smaller than A


def test_three_sum_golden_n1():
    inst = bmm_zeroes_to_3sum([[1]], [[1]], [[0]])
    assert inst.base == 4
    assert inst.s1 == (17,) and inst.s2 == (3,) and inst.s3 == (20,)
    assert three_sum_bruteforce(inst.s1, inst.s2, inst.s3)
    assert serialize_three_sum(inst) == "17\n3\n20\n"


def test_three_sum_empty_sets():
    zero = np.zeros((2, 2), dtype=np.int64)
    inst = bmm_zeroes_to_3sum(zero, zero, zero)
    assert inst.s1 == () and inst.s2 == ()
    assert not three_sum_bruteforce(inst.s1, inst.s2, inst.s3)


def test_three_sum_bruteforce_basics():
    assert three_sum_bruteforce([1], [2], [3])
    assert not three_sum_bruteforce([1], [1], [3])
    with pytest.raises(ResourceLimitError):
        three_sum_bruteforce(range(4000), range(4000), [1])


def test_three_sum_matches_cubic_scan():
    rng = seeded_rng(62)
    for _ in range(30):
        s1 = [int(x) for x in rng.integers(-50, 50, 8)]
        s2 = [int(x) for x in rng.integers(-50, 50, 8)]
        s3 = [int(x) for x in rng.integers(-50, 50, 8)]
        assert three_sum_bruteforce(s1, s2, s3) == brute_three_sum(s1, s2, s3)


def test_encoding_injectivity_exhaustive():
    # a + b = c with a = iW^2+k, b = jW-k', c = i'W^2+j'W forces
    # i=i', j=j', k=k' for every index combination in range
    for n in (1, 2, 4, 6):
        w = 2 * (n + 1)
        seen = {}
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    for k2 in range(1, n + 1):
                        total = i * w * w + k + j * w - k2
                        if k == k2:
                            assert total == i * w * w + j * w
                            assert seen.setdefault(total, (i, j)) == (i, j)
                        else:
                            assert total % w != 0 or (total // w) % w != j


def test_reduction_equivalence_small():
    rng = seeded_rng(63)
    for n in (2, 3, 4):
        for _ in range(30):
            a = rng.integers(0, 2, (n, n))
            b = rng.integers(0, 2, (n, n))
            c = boolean_matmul(a, b)
            if rng.integers(0, 2):
                flip = int(rng.integers(0, n * n))
                c.flat[flip] ^= 1
            truth = np.array_equal(boolean_matmul(a, b), c)
            inst = bmm_zeroes_to_3sum(a, b, c)
            clean = (
                bmm_ones_certificate(a, b, c).ok
                and not three_sum_bruteforce(inst.s1, inst.s2, inst.s3)
            )
            assert clean == truth


def test_three_sum_hit_decodes_to_wrong_zero():
    rng = seeded_rng(64)
    a = rng.integers(0, 2, (4, 4))
    b = rng.integers(0, 2, (4, 4))
    c = boolean_matmul(a, b)
    ones = np.argwhere(c == 1)
    i, j = ones[0]
    c[i, j] = 0  # a zero entry that should be one
    inst = bmm_zeroes_to_3sum(a, b, c)
    key = (int(i) + 1) * inst.base ** 2 + (int(j) + 1) * inst.base
    assert inst.zero_map[key] == (int(i), int(j))
    assert three_sum_bruteforce(inst.s1, inst.s2, inst.s3)


def test_circuit_constant_n1():
    ctx = build_crt_basis(1, 100).fields[0]
    circ = emit_upit_circuit([[3]], [[4]], ctx)
    for x in range(ctx.p):
        assert eval_circuit(circ, x, ctx) == 12 % ctx.p


def test_circuit_identity_golden():
    eye = np.eye(2, dtype=np.int64)
    circ = emit_upit_circuit(eye, eye, F17)
    assert eval_circuit(circ, 2, F17) == 9          # 1 + 2^3
    for x in range(17):
        assert eval_circuit(circ, x, F17) == (1 + x**3) % 17


def test_circuit_zero_matrices():
    zero = np.zeros((3, 3), dtype=np.int64)
    circ = emit_upit_circuit(zero, zero, F17)
    assert all(eval_circuit(circ, x, F17) == 0 for x in range(17))


def test_circuit_matches_fingerprint():
    rng = seeded_rng(65)
    for n in (2, 3, 5, 8):
        basis = build_crt_basis(n, 10**4)
        ctx = basis.fields[0]
        a = rng.integers(-9, 10, (n, n))
        b = rng.integers(-9, 10, (n, n))
        circ = emit_upit_circuit(a, b, ctx)
        rep = fingerprint_rep(a, b, ctx)
        probes = [int(x) for x in rng.integers(0, ctx.p, 12)]
        assert [eval_circuit(circ, x, ctx) for x in probes] == eval_fingerprint(
            rep, probes
        )
        assert circ.degree == n * n - 1


def test_circuit_wire_budget():
    rng = seeded_rng(66)
    for n in (1, 2, 7, 16, 33):
        a = rng.integers(0, 17, (n, n))
        b = rng.integers(0, 17, (n, n))
        circ = emit_upit_circuit(a, b, F17)
        assert circ.wire_count <= 8 * n * n + 64 * n


def test_circuit_serialization_roundtrippable_text():
    eye = np.eye(2, dtype=np.int64)
    text = serialize_circuit(emit_upit_circuit(eye, eye, F17))
    lines = text.strip().splitlines()
    assert lines[0].startswith("# wires=")
    assert lines[1] == "g0 = INPUT X"
    assert lines[-1].startswith("OUT g")
    assert any(" MUL " in ln for ln in lines)
    assert any(" ADD " in ln for ln in lines)


def test_eval_circuit_validates_operands():
    from matverify import Circuit, Gate

    bad = Circuit(
        gates=(Gate("INPUT"), Gate("MUL", a=0, b=5)),
        output=1,
        wire_count=2,
        degree=1,
        modulus=17,
    )
    with pytest.raises(UsageError):
        eval_circuit(bad, 2, F17)


def test_boolean_exhaustive_n2_equivalence():
    mats = list(all_boolean_matrices(2))
    for a in mats:
        for b in mats:
            truth_c = boolean_matmul(a, b)
            for c in mats:
                inst = bmm_zeroes_to_3sum(a, b, c)
                clean = (
                    bmm_ones_certificate(a, b, c).ok
                    and not three_sum_bruteforce(inst.s1, inst.s2, inst.s3)
                )
                assert clean == np.array_equal(truth_c, c)
