"""Span aggregation, self time, and patching matverify from outside."""

import numpy as np
import pytest

import tracer as tracing


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_synthetic_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]), b [5, 7] and d [8, 9]
    clock = FakeClock([0, 1, 2, 3, 4, 5, 7, 8, 9, 10])
    tr = tracing.Tracer(clock)
    a = tr.enter("verify.a")
    b = tr.enter("verify.b")
    c = tr.enter("poly.c")
    tr.exit(c)
    tr.exit(b)
    b = tr.enter("verify.b")
    tr.exit(b)
    d = tr.enter("field.d")
    tr.exit(d)
    tr.exit(a)

    aggs = {k: (v.calls, v.total, v.self_time) for k, v in tr.aggs.items()}
    assert aggs == {
        ("poly.c", "verify.b"): (1, 1, 1),
        ("verify.b", "verify.a"): (2, 5, 4),
        ("field.d", "verify.a"): (1, 1, 1),
        ("verify.a", tracing.ROOT): (1, 10, 4),
    }
    # self times partition the root span
    assert sum(v[2] for v in aggs.values()) == 10


def _small_product_run(mv):
    rng = np.random.default_rng(0)
    a = rng.integers(-9, 10, (16, 16))
    b = rng.integers(-9, 10, (16, 16))
    c = a @ b
    c[3, 5] += 2
    res = mv.correct_product(a, b, c, 4)
    assert np.array_equal(res.product.data, a @ b)
    return res


def test_install_traces_import_sites_and_uninstall_restores():
    import matverify as mv
    import matverify.correct
    import matverify.verify

    originals = (mv.verify_product, matverify.correct.verify_product,
                 matverify.verify.progression_eval,
                 matverify.correct.CorrectionEngine.find_nonzero)
    tr = tracing.Tracer()
    handle = tracing.install(tr)
    try:
        assert matverify.correct.verify_product is not originals[1]
        res = _small_product_run(mv)
    finally:
        handle.uninstall()
    assert (mv.verify_product, matverify.correct.verify_product,
            matverify.verify.progression_eval,
            matverify.correct.CorrectionEngine.find_nonzero) == originals
    assert not tr.missing and not tr.broken

    m = tracing.layer_metrics(tr, ops=1)
    assert m["correct.apply_write.calls"] == res.correction_count == 1
    assert m["correct.prime_passes"] == res.prime_passes
    assert m["correct.max_granularity"] == res.max_granularity
    # the library's own evaluation count, split between search and sweep
    assert m["correct.evaluations"] + m["verify.evaluations"] == res.evaluations
    assert m["verify.verify_product.calls"] == res.prime_passes
    assert m["correct.sweep_s"] == pytest.approx(m["verify.verify_product.s"])
    # layer self times add up to the traced top-level span
    top = sum(a.total for (_, p), a in tr.aggs.items() if p == tracing.ROOT)
    layers = sum(m[f"{layer}.self_s"] for layer in ("poly", "verify", "matrix",
                                                    "field", "correct"))
    assert layers == pytest.approx(top)


def test_removed_name_reads_unmeasured(monkeypatch):
    import matverify as mv

    targets = tuple(t for t in tracing.TARGETS if t[0] != "correct.find_nonzero")
    monkeypatch.setattr(tracing, "TARGETS", targets + (
        ("correct.find_nonzero", "matverify.correct", "CorrectionEngine.gone"),))
    tr = tracing.Tracer()
    handle = tracing.install(tr)
    try:
        _small_product_run(mv)
    finally:
        handle.uninstall()
    m = tracing.layer_metrics(tr, ops=1)
    assert m["correct.find_nonzero.calls"] == "unmeasured"
    assert m["correct.find_nonzero.s"] == "unmeasured"
    assert m["correct.apply_write.calls"] == 1
