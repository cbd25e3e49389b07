"""The checker: every wrong verdict, product, exit code or missing exception
counts as a failure."""

import types

import numpy as np
import pytest

from instances import generate, write_mat
from worker import InProcess, check, check_cli

VERIFY_NE = {"op": "verify", "t": 4, "expect": {"equal": False}}
PRODUCT = {"op": "correct", "t": 4, "expect": {"product": "truth"}}
PROMISE = {"op": "correct", "t": 4, "expect": {"raises": "PromiseViolationError"}}


@pytest.fixture
def truth_dir(tmp_path):
    truth = np.arange(16, dtype=np.int64).reshape(4, 4)
    np.save(tmp_path / "truth.npy", truth)
    return tmp_path, truth


def test_wrong_verdict_fails(tmp_path):
    assert check(VERIFY_NE, ("ok", False), tmp_path)
    assert not check(VERIFY_NE, ("ok", True), tmp_path)
    assert not check(VERIFY_NE, ("ok", 0), tmp_path)
    assert not check(VERIFY_NE, ("raised", "UsageError"), tmp_path)


def test_wrong_product_fails(truth_dir):
    d, truth = truth_dir
    assert check(PRODUCT, ("ok", truth.copy()), d)
    assert check(PRODUCT, ("ok", truth.astype(object)), d)
    bad = truth.copy()
    bad[2, 3] += 1
    assert not check(PRODUCT, ("ok", bad), d)
    assert not check(PRODUCT, ("ok", truth[:3]), d)
    assert not check(PRODUCT, ("raised", "PromiseViolationError"), d)


def test_missing_promise_violation_fails(truth_dir):
    d, truth = truth_dir
    assert check(PROMISE, ("raised", "PromiseViolationError"), d)
    assert not check(PROMISE, ("ok", truth), d)
    assert not check(PROMISE, ("raised", "InternalCheckError"), d)


def test_cli_checks(truth_dir):
    d, truth = truth_dir
    rec = {"expect": {"exit": 0, "verdict": "success", "out": "truth", "trace_lines": 2}}
    write_mat(d / "out.mat", truth)
    (d / "trace.txt").write_text("iter=0\niter=1\n")
    ok = "corrections=2\nverdict=success\n"
    assert check_cli(rec, 0, ok, d)
    assert not check_cli(rec, 1, ok, d)
    assert not check_cli(rec, 0, "verdict=not_equal\n", d)
    assert not check_cli(rec, 0, ok + "verdict=success\n", d)
    (d / "trace.txt").write_text("iter=0\n")
    assert not check_cli(rec, 0, ok, d)
    (d / "trace.txt").write_text("iter=0\niter=1\n")
    bad = truth.copy()
    bad[0, 0] = 99
    write_mat(d / "out.mat", bad)
    assert not check_cli(rec, 0, ok, d)
    (d / "out.mat").unlink()
    assert not check_cli(rec, 0, ok, d)


def test_planted_wrong_program_is_counted(tmp_path):
    """A program that answers 'equal' to everything fails on exactly the
    instances with planted errors, through the same path the loop uses."""
    manifest = generate("verify", 5, tmp_path / "v")
    liar = types.SimpleNamespace(verify_product=lambda a, b, c, t: True)
    runner = InProcess(liar, tmp_path / "v")
    verdicts = [runner.run(rec)[1] for rec in manifest["instances"]]
    assert verdicts == [rec["expect"]["equal"] for rec in manifest["instances"]]
    assert verdicts.count(False) == 4
