"""Seeded instances: reproducible to the byte, right or wrong by construction,
and BENCHMARK.json naming exactly what the benchmark reports."""

import json

import numpy as np
import pytest

import run
from instances import CORRECT_ROUNDS, WORKLOADS, exact_product, generate, least_prime_above


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes(tmp_path, workload):
    generate(workload, 11, tmp_path / "one")
    generate(workload, 11, tmp_path / "two")
    generate(workload, 12, tmp_path / "other")
    one = _files(tmp_path / "one")
    assert one == _files(tmp_path / "two")
    other = _files(tmp_path / "other")
    assert one.keys() == other.keys() and one != other


def test_exact_product_matches_object_dot():
    rng = np.random.default_rng(1)
    for cap in (9, 1 << 20, 1 << 26):
        a = rng.integers(-cap, cap + 1, (64, 64))
        b = rng.integers(-cap, cap + 1, (64, 64))
        want = np.dot(a.astype(object), b.astype(object))
        assert np.array_equal(exact_product(a, b), want)


def _load(d, key):
    return np.load(d / f"{key}.npy")


def test_truth_by_construction(tmp_path):
    man = generate("verify", 3, tmp_path / "v")
    for rec in man["instances"]:
        d = tmp_path / "v" / rec["dir"]
        a, b, c = (_load(d, k) for k in "abc")
        wrong = np.count_nonzero(exact_product(a, b) != c)
        if rec["expect"]["equal"]:
            assert wrong == 0
        else:
            assert 1 <= wrong <= rec["t"]

    man = generate("correct", 3, tmp_path / "c")
    p1 = least_prime_above(128 * 128)
    assert p1 == 16411
    for rec in man["instances"]:
        d = tmp_path / "c" / rec["dir"]
        a, b = _load(d, "a"), _load(d, "b")
        if rec["op"] == "osmm":
            assert 128 <= np.count_nonzero(_load(d, "truth")) <= rec["t"]
            continue
        diff = exact_product(a, b) - _load(d, "c")
        wrong = np.count_nonzero(diff)
        if "raises" in rec["expect"]:
            assert wrong == rec["t"] + 1
        else:
            assert np.array_equal(_load(d, "truth"), exact_product(a, b))
            assert 1 <= wrong <= rec["t"]
        if rec["name"] == "p1_multiples":
            assert not np.any(diff % p1)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert set(run.TAIL_PERCENTILE) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rounds_repeat_the_same_kinds(tmp_path, workload):
    man = generate(workload, 4, tmp_path / workload)
    rounds = {}
    for rec in man["instances"]:
        rounds.setdefault(rec["round"], []).append((rec["name"], rec["op"], rec["expect"]))
    assert sorted(rounds) == list(range(len(rounds)))
    assert len(rounds) == (CORRECT_ROUNDS if workload == "correct" else 1)
    assert all(kinds == rounds[0] for kinds in rounds.values())
