import shlex
from pathlib import Path

import numpy as np
import pytest

from matverify import (
    IntMatrix,
    correct_product,
    naive_multiply,
    read_matrix,
    verify_product,
    write_matrix,
)
import matverify.verify as verify_mod
from matverify.cli import build_parser, main

from helpers import skew_pair


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    report = {}
    for line in out.splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            report[k] = v
    return code, report, out


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv", [
    "gen 4 1",
    "verify A.mat B.mat C.mat 1 --mode freivalds",
    "reduce --to upit A.mat B.mat --check",
])
def test_negative_seed_is_a_usage_error(workdir, capsys, argv):
    # refused right after parsing, before any report line
    run(capsys, "--seed", 1, "gen", 4, 0)
    code = main(["--seed", "-1", *shlex.split(argv)])
    out, err = capsys.readouterr()
    assert code == 64 and out == ""
    assert err.startswith("error=usage") and "seed must be >= 0" in err


def test_gen_exact_and_planted(workdir, capsys):
    code, rep, _ = run(capsys, "--seed", 1, "gen", 4, 0)
    assert code == 0 and rep["seed"] == "1"
    a, b, c = read_matrix("A.mat"), read_matrix("B.mat"), read_matrix("C.mat")
    assert c == naive_multiply(a, b)

    code, _, _ = run(capsys, "--seed", 1, "gen", 4, 3, "--out-c", "C3.mat")
    assert code == 0
    c3 = read_matrix("C3.mat")
    assert int((c3.data != naive_multiply(a, b).data).sum()) == 3

    code, _, _ = run(capsys, "--seed", 7, "gen", 2, 4, "--out-c", "C4.mat")
    assert code == 0
    assert (read_matrix("C4.mat").data != naive_multiply(
        read_matrix("A.mat"), read_matrix("B.mat")).data).all()


def test_gen_is_reproducible(workdir, capsys):
    run(capsys, "--seed", 9, "gen", 5, 2)
    first = [open(f).read() for f in ("A.mat", "B.mat", "C.mat")]
    run(capsys, "--seed", 9, "gen", 5, 2)
    assert [open(f).read() for f in ("A.mat", "B.mat", "C.mat")] == first


def test_gen_validates_z(workdir, capsys):
    code, _, _ = run(capsys, "gen", 2, 5)
    assert code == 64


def test_verify_roundtrip_invariant(workdir, capsys):
    # z = 0 verifies, z >= 1 refutes, across seeded runs at t = z
    for seed in range(100):
        z = seed % 5
        run(capsys, "--seed", seed, "gen", 4, z)
        code, rep, _ = run(capsys, "verify", "A.mat", "B.mat", "C.mat", max(z, 1))
        assert code == (1 if z >= 1 else 0), seed
        assert rep["verdict"] == ("not_equal" if z else "equal")


def test_verify_modes(workdir, capsys):
    run(capsys, "--seed", 3, "gen", 8, 0)
    for mode in ("det", "freivalds", "sampling", "flawed"):
        code, rep, _ = run(
            capsys, "--seed", 5, "verify", "A.mat", "B.mat", "C.mat", 1,
            "--mode", mode,
        )
        assert code == 0 and rep["verdict"] == "equal", mode
    run(capsys, "--seed", 3, "gen", 8, 2, "--out-c", "bad.mat")
    for mode in ("det", "freivalds", "sampling"):
        code, rep, _ = run(
            capsys, "--seed", 5, "verify", "A.mat", "B.mat", "bad.mat", 2,
            "--mode", mode,
        )
        assert code == 1 and rep["verdict"] == "not_equal", mode


def test_verify_names_the_probe_path(workdir, capsys, monkeypatch):
    # probe=nonzero: the sum of AB - C refuted C; probe=zero: the
    # fingerprint decided, also for errors that cancel in the sum. kernel=
    # names the evaluator of those fingerprints, none after the probe
    rng = np.random.default_rng(4)
    a = rng.integers(-9, 10, (6, 6))
    b = rng.integers(-9, 10, (6, 6))
    truth = a @ b
    one, pair = truth.copy(), truth.copy()
    one[2, 3] += 5
    pair[1, 0] += 4
    pair[1, 5] -= 4
    for name, m in (("A", a), ("B", b), ("C", truth), ("one", one), ("pair", pair)):
        write_matrix(f"{name}.mat", IntMatrix(m))
    for c, verdict, probe, kernel in (("C", "equal", "zero", "gemm"),
                                      ("one", "not_equal", "nonzero", "none"),
                                      ("pair", "not_equal", "zero", "gemm")):
        code, rep, _ = run(capsys, "verify", "A.mat", "B.mat", f"{c}.mat", 2)
        assert (rep["verdict"], rep["probe"], rep["kernel"]) == (verdict, probe, kernel), c
        assert (int(rep["evaluations"]) == 0) == (probe == "nonzero")
    monkeypatch.setattr(verify_mod, "K_GEMM", 0)
    code, rep, _ = run(capsys, "verify", "A.mat", "B.mat", "pair.mat", 2)
    assert (rep["verdict"], rep["kernel"]) == ("not_equal", "chirp")


def test_verify_reports_primes_and_limbs(workdir, capsys):
    # primes= is the CRT basis size, limbs= the most limbs of a chirp
    # transform: t = n = 512 runs one prime in one limb; entries up to 2^14
    # need three primes, and 64 points at n = 64 take the GEMM; the probe
    # exit builds no basis
    rng = np.random.default_rng(5)
    for n, cap, t, primes, limbs in ((512, 9, 512, 1, 1), (64, 1 << 14, 64, 3, 0)):
        a = rng.integers(-cap, cap + 1, (n, n))
        b = rng.integers(-cap, cap + 1, (n, n))
        c = naive_multiply(a, b).data
        for name, m in (("A", a), ("B", b), ("C", c)):
            write_matrix(f"{name}.mat", IntMatrix(m))
        code, rep, _ = run(capsys, "verify", "A.mat", "B.mat", "C.mat", t)
        assert code == 0 and rep["probe"] == "zero"
        assert (int(rep["primes"]), int(rep["limbs"])) == (primes, limbs), n
    c[0, 0] += 1
    write_matrix("C.mat", IntMatrix(c))
    code, rep, _ = run(capsys, "verify", "A.mat", "B.mat", "C.mat", t)
    assert code == 1 and rep["probe"] == "nonzero"
    assert (rep["primes"], rep["limbs"]) == ("0", "0")


def test_verify_flawed_blind_spot(workdir, capsys):
    d, eye = skew_pair()
    write_matrix("D.mat", IntMatrix(d))
    write_matrix("I.mat", IntMatrix(eye))
    write_matrix("Z.mat", IntMatrix(np.zeros((2, 2), dtype=np.int64)))
    code, rep, _ = run(
        capsys, "verify", "D.mat", "I.mat", "Z.mat", 2, "--mode", "flawed"
    )
    assert code == 0
    assert set(rep["probe_values"].split(",")) == {"0"}
    code, rep, _ = run(capsys, "verify", "D.mat", "I.mat", "Z.mat", 2)
    assert code == 1 and rep["verdict"] == "not_equal"


def test_correct_command(workdir, capsys):
    # the prony engine evaluates 2t points and the sweep min(2t, m^2): at
    # n = 40, padded to 64, both 200-point progressions run on the chirp,
    # past the GEMM bound of K_GEMM * bit_length(64) = 84
    for n, z, t, kernel in ((8, 5, 5, "gemm"), (40, 9, 100, "chirp")):
        run(capsys, "--seed", 5, "gen", n, z)
        code, rep, _ = run(
            capsys, "correct", "A.mat", "B.mat", "C.mat", t, "--out", "fixed.mat"
        )
        assert code == 0 and rep["corrections"] == str(z) and rep["kernel"] == kernel
        assert rep["engine"] == "prony" and rep["max_granularity"] == "0"
        fixed = read_matrix("fixed.mat")
        assert fixed == naive_multiply(read_matrix("A.mat"), read_matrix("B.mat"))


# -- entries at the file format's cap, 2^40 - 1 ----------------------------------

CAP = (1 << 40) - 1
# rows of A and columns of B as sign patterns: rows 0-1 and 2-3 of A are
# orthogonal to columns 0-1 of B and meet columns 2 and 3 in 4 CAP^2
_ROWS = [[1, 1, 1, 1], [1, 1, 1, 1], [1, -1, 1, -1], [1, -1, 1, -1]]
_COLS = [[1, 1, -1, -1], [1, -1, -1, 1], [1, 1, 1, 1], [1, -1, 1, -1]]


def _write_text(path, rows):
    Path(path).write_text(f"{len(rows)} {len(rows[0])}\n"
                          + "".join(" ".join(map(str, r)) + "\n" for r in rows))


def _int_rows(path):
    return [[int(v) for v in ln.split()] for ln in Path(path).read_text().splitlines()[1:]]


def test_verify_entries_at_the_cap_from_files(workdir, capsys):
    # every sum of A @ B passes 2^80 on the way; the product is the zero
    # matrix (cancelling columns) or A's columns permuted with signs, which
    # C holds at +-CAP. The last C of each B differs in two entries whose
    # differences cancel in the all-ones sum, so the fingerprint decides
    a = CAP * np.array(_ROWS)
    zero_b = CAP * np.array([_COLS[0], _COLS[1], _COLS[0], _COLS[1]]).T
    perm = np.array([[0, 0, -1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, -1, 0, 0]])
    _write_text("A.mat", a.tolist())
    for b, changes in (
        (zero_b, [{}, {(1, 2): CAP}, {(3, 0): -CAP}, {(2, 2): 1},
                  {(0, 1): CAP, (2, 3): -CAP}]),
        (perm, [{}, {(0, 0): -CAP}, {(3, 3): CAP - 1}, {(0, 0): -CAP, (0, 2): CAP}]),
    ):
        truth = a.astype(object).dot(b.astype(object))
        assert set(truth.flat) <= {0, CAP, -CAP}
        for change in changes:
            c = truth.copy()
            for cell, value in change.items():
                assert c[cell] != value
                c[cell] = value
            _write_text("B.mat", b.tolist())
            _write_text("C.mat", c.tolist())
            t = max(1, len(change))
            equal = not change
            files = [read_matrix(f) for f in ("A.mat", "B.mat", "C.mat")]
            assert verify_product(*files, t) == equal
            code, rep, _ = run(capsys, "verify", "A.mat", "B.mat", "C.mat", t)
            assert (code, rep["verdict"]) == ((0, "equal") if equal else (1, "not_equal"))
        assert (truth - c).sum() == 0      # the last change cancels


def test_correct_entries_at_the_cap_from_files(workdir, capsys):
    # four entries of AB are 4 CAP^2 > 2^62, which no file C can hold: C
    # has 0 there, and +-CAP at two entries where AB is 0
    a, b = CAP * np.array(_ROWS), CAP * np.array(_COLS).T
    truth = a.astype(object).dot(b.astype(object))
    big = [(0, 2), (1, 2), (2, 3), (3, 3)]
    assert sorted(zip(*np.nonzero(truth))) == big and truth[0, 2] == 4 * CAP**2 > 1 << 62
    c = np.zeros((4, 4), dtype=np.int64)
    c[0, 0], c[3, 1] = CAP, -CAP
    for name, m in (("A.mat", a), ("B.mat", b), ("C.mat", c)):
        _write_text(name, m.tolist())
    files = [read_matrix(f) for f in ("A.mat", "B.mat", "C.mat")]
    for engine in ("prony", "quadtree"):
        res = correct_product(*files, 6, engine=engine)
        assert res.product.data.tolist() == truth.tolist()
        assert sorted(res.corrections) == sorted(
            [(0, 0, CAP, 0), (3, 1, -CAP, 0)] + [(i, j, 0, 4 * CAP**2) for i, j in big])
    code, rep, _ = run(capsys, "correct", "A.mat", "B.mat", "C.mat", 6, "--out", "F.mat")
    assert code == 0 and rep["corrections"] == "6"
    assert _int_rows("F.mat") == truth.tolist()
    code, rep, _ = run(capsys, "correct", "A.mat", "B.mat", "C.mat", 5, "--out", "G.mat")
    assert code == 2 and rep["verdict"] == "promise_violation"


def test_correct_promise_violation_exit_2(workdir, capsys):
    run(capsys, "--seed", 5, "gen", 8, 5)
    code, rep, _ = run(
        capsys, "correct", "A.mat", "B.mat", "C.mat", 4, "--out", "nope.mat"
    )
    assert code == 2
    assert rep["verdict"] == "promise_violation"
    # five wrong entries at t = 4: the 8 values give a locator without its
    # roots, refused before any write (the quadtree writes four first, as
    # test_promise_violation_raises_before_overrun pins)
    assert rep["error"] == "promise_violation corrections=0 position=None"


def test_osmm_zero_matrices(workdir, capsys):
    write_matrix("Z.mat", IntMatrix(np.zeros((4, 4), dtype=np.int64)))
    code, rep, _ = run(capsys, "osmm", "Z.mat", "Z.mat", 1, "--out", "P.mat")
    assert code == 0 and rep["corrections"] == "0" and rep["kernel"] == "none"
    assert not read_matrix("P.mat").data.any()


def test_osmm_matches_naive(workdir, capsys):
    run(capsys, "--seed", 6, "gen", 4, 0)
    code, rep, _ = run(
        capsys, "osmm", "A.mat", "B.mat", 16, "--out", "P.mat"
    )
    assert code == 0 and rep["kernel"] == "gemm" and rep["engine"] == "prony"
    assert read_matrix("P.mat") == naive_multiply(
        read_matrix("A.mat"), read_matrix("B.mat")
    )


def test_reduce_3sum_golden(workdir, capsys):
    write_matrix("one.mat", IntMatrix(np.array([[1]])))
    write_matrix("zero.mat", IntMatrix(np.array([[0]])))
    code, rep, _ = run(
        capsys, "reduce", "--to", "3sum", "one.mat", "one.mat", "zero.mat",
        "--out", "inst.3sum",
    )
    assert code == 0
    assert open("inst.3sum").read() == "17\n3\n20\n"


def test_reduce_3sum_check_verdicts(workdir, capsys):
    run(capsys, "--seed", 11, "gen", 1, 0)  # only produces files; overwrite below
    rng = np.random.default_rng(1)
    a = IntMatrix(rng.integers(0, 2, (5, 5)))
    b = IntMatrix(rng.integers(0, 2, (5, 5)))
    c = IntMatrix(((a.data @ b.data) > 0).astype(np.int64))
    write_matrix("A.mat", a)
    write_matrix("B.mat", b)
    write_matrix("C.mat", c)
    code, rep, out = run(
        capsys, "reduce", "--to", "3sum", "A.mat", "B.mat", "C.mat", "--check"
    )
    assert code == 0
    assert "NO instance, C verified" in out
    assert rep["agreement"] == "true"
    bad = c.data.copy()
    bad.flat[int(np.argmax(bad))] ^= 1
    write_matrix("C.mat", IntMatrix(bad))
    code, rep, _ = run(
        capsys, "reduce", "--to", "3sum", "A.mat", "B.mat", "C.mat", "--check"
    )
    assert code == 1 and rep["agreement"] == "true"


def test_reduce_3sum_rejects_non_boolean(workdir, capsys):
    write_matrix("M.mat", IntMatrix(np.array([[2]])))
    code, _, _ = run(
        capsys, "reduce", "--to", "3sum", "M.mat", "M.mat", "M.mat"
    )
    assert code == 64


def test_reduce_upit(workdir, capsys):
    write_matrix("Z.mat", IntMatrix(np.zeros((2, 2), dtype=np.int64)))
    code, rep, _ = run(
        capsys, "reduce", "--to", "upit", "Z.mat", "Z.mat", "--out", "c.upit"
    )
    assert code == 0
    text = open("c.upit").read()
    assert "CONST 0" in text and text.strip().endswith("OUT g20")
    run(capsys, "--seed", 2, "gen", 4, 0)
    code, rep, _ = run(
        capsys, "--seed", 2, "reduce", "--to", "upit", "A.mat", "B.mat",
        "--check", "--out", "c2.upit",
    )
    assert code == 0 and rep["agreement"] == "true"


def test_exit_codes_for_bad_input(workdir, capsys):
    code, _, _ = run(capsys, "verify", "no.mat", "no.mat", "no.mat", 1)
    assert code == 64
    with open("broken.mat", "w") as fh:
        fh.write("1 1\nnope\n")
    run(capsys, "--seed", 1, "gen", 2, 0)
    code, _, _ = run(capsys, "verify", "broken.mat", "B.mat", "C.mat", 1)
    assert code == 65
    for header in ("3000000000 3000000000", "1 4000000000000000000"):
        with open("huge.mat", "w") as fh:
            fh.write(f"{header}\n1 2 3\n")
        code = main(["verify", "huge.mat", "B.mat", "C.mat", "1"])
        assert code == 65
        assert capsys.readouterr().err.startswith("error=parse detail=line 2:")
    code, _, _ = run(capsys, "bench", "--suite", "naive", "--sizes", "x")
    assert code == 64
    code, _, _ = run(capsys, "nonsense")
    assert code == 64


def test_readme_command_lines_parse():
    # every example under "## Command line" must parse as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [ln.split("#", 1)[0].strip() for ln in block.splitlines()]
    commands = [ln for ln in lines if ln.startswith("matverify ")]
    assert commands
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


def test_quiet_keeps_verdict_only(workdir, capsys):
    run(capsys, "--seed", 1, "gen", 4, 0)
    code = main(["--quiet", "verify", "A.mat", "B.mat", "C.mat", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "verdict=equal"


def test_trace_flag(workdir, capsys):
    run(capsys, "--seed", 5, "gen", 4, 2)
    code, rep, _ = run(
        capsys, "--trace", "t.log", "correct", "A.mat", "B.mat", "C.mat", 2,
        "--out", "F.mat",
    )
    assert code == 0
    log = open("t.log").read()
    assert log.count("pos=") == 2 and "prime=" in log and log.count(" L=2 ") == 2
    assert rep["engine"] == "prony"


def test_correct_parses_c_before_it_opens_the_trace(workdir, capsys):
    # a C that fails to parse is reported before the trace file is opened
    # for writing, so an existing trace keeps its bytes
    run(capsys, "--seed", 5, "gen", 4, 2)
    Path("t.log").write_text("an earlier trace\n")
    Path("C.mat").write_text("4 4\n1 2 3 4\n")
    code = main(["--trace", "t.log", "correct", "A.mat", "B.mat", "C.mat", "2",
                 "--out", "F.mat"])
    assert code == 65
    assert capsys.readouterr().err.startswith("error=parse detail=line 3:")
    assert Path("t.log").read_text() == "an earlier trace\n"
    assert not Path("F.mat").exists()
