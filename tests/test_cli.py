import numpy as np
import pytest

from matverify import IntMatrix, naive_multiply, read_matrix, write_matrix
from matverify.cli import main

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
    run(capsys, "--seed", 5, "gen", 8, 5)
    code, rep, _ = run(
        capsys, "correct", "A.mat", "B.mat", "C.mat", 5, "--out", "fixed.mat"
    )
    assert code == 0 and rep["corrections"] == "5"
    fixed = read_matrix("fixed.mat")
    assert fixed == naive_multiply(read_matrix("A.mat"), read_matrix("B.mat"))


def test_correct_promise_violation_exit_2(workdir, capsys):
    run(capsys, "--seed", 5, "gen", 8, 5)
    code, rep, _ = run(
        capsys, "correct", "A.mat", "B.mat", "C.mat", 4, "--out", "nope.mat"
    )
    assert code == 2
    assert rep["verdict"] == "promise_violation"
    assert "corrections=4" in rep["error"]


def test_osmm_zero_matrices(workdir, capsys):
    write_matrix("Z.mat", IntMatrix(np.zeros((4, 4), dtype=np.int64)))
    code, rep, _ = run(capsys, "osmm", "Z.mat", "Z.mat", 1, "--out", "P.mat")
    assert code == 0 and rep["corrections"] == "0"
    assert not read_matrix("P.mat").data.any()


def test_osmm_matches_naive(workdir, capsys):
    run(capsys, "--seed", 6, "gen", 4, 0)
    code, _, _ = run(
        capsys, "osmm", "A.mat", "B.mat", 16, "--out", "P.mat"
    )
    assert code == 0
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


def test_bench_csv_shape(workdir, capsys):
    code, _, out = run(
        capsys, "--seed", 4, "bench", "--suite", "detect",
        "--sizes", "8,16", "--reps", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,t,mode,rep,wall_s,evaluations,corrections"
    assert len(lines) == 1 + 2 * 4
    assert sum(1 for ln in lines if ",median," in ln) == 2
    for suite, trule in (("correct", "n/2"), ("naive", "const:2")):
        code, _, out = run(
            capsys, "--seed", 4, "bench", "--suite", suite,
            "--sizes", "8", "--reps", "2", "--t-rule", trule,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4


def test_bench_out_file(workdir, capsys):
    code, rep, _ = run(
        capsys, "--seed", 4, "bench", "--suite", "naive",
        "--sizes", "8", "--reps", "1", "--out", "b.csv",
    )
    assert code == 0 and rep["out"] == "b.csv"
    assert open("b.csv").read().startswith("n,t,mode,rep")


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


def test_quiet_keeps_verdict_only(workdir, capsys):
    run(capsys, "--seed", 1, "gen", 4, 0)
    code = main(["--quiet", "verify", "A.mat", "B.mat", "C.mat", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "verdict=equal"


def test_trace_flag(workdir, capsys):
    run(capsys, "--seed", 5, "gen", 4, 2)
    code, _, _ = run(
        capsys, "--trace", "t.log", "correct", "A.mat", "B.mat", "C.mat", 2,
        "--out", "F.mat",
    )
    assert code == 0
    log = open("t.log").read()
    assert log.count("pos=") == 2 and "prime=" in log
