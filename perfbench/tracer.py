"""Span tracer that times matverify's layers from outside.

``install(tracer)`` replaces public functions of ``matverify`` at every
module attribute that refers to them (the defining module and each import
site), and public methods on their classes, with wrappers that record a
span per call. Per-entry accessors (``IntMatrix.get/set``, ``SubmatrixId``)
are left alone. ``uninstall`` puts the originals back.

Spans are not kept one by one: the correction engine makes 10^5-10^6
kernel calls per operation. Each call is folded into an aggregate keyed by
(span name, parent span name) holding the call count, the total time and
the self time, which is the span's duration minus the time its child spans
cover. A few spans also carry counters read from their arguments or
results (probes).

``layer_metrics`` turns the aggregates into the benchmark's per-layer
metrics. A metric whose span could not be installed, because the wrapped
name no longer exists, reads ``"unmeasured"`` rather than zero.
"""

import importlib
import os
import sys
import time

_WORD = 1 << 31

# (span name, module, attribute); a dotted attribute is a class method
TARGETS = (
    ("field.build_crt_basis", "matverify.field", "build_crt_basis"),
    ("field.find_generator", "matverify.field", "find_generator"),
    ("field.power_sequence", "matverify.field", "power_sequence"),
    ("poly.progression_eval", "matverify.poly", "progression_eval"),
    ("matrix.read_matrix", "matverify.matrix", "read_matrix"),
    ("matrix.write_matrix", "matverify.matrix", "write_matrix"),
    ("matrix.pad_to_pow2", "matverify.matrix", "pad_to_pow2"),
    ("matrix.augment", "matverify.matrix", "augment"),
    ("matrix.reduced", "matverify.matrix", "AugmentedPair.reduced"),
    ("matrix.magnitude_bound", "matverify.matrix", "AugmentedPair.magnitude_bound"),
    ("matrix.materialize", "matverify.matrix", "AugmentedPair.materialize"),
    ("verify.verify_product", "matverify.verify", "verify_product"),
    ("verify.all_zeroes_test", "matverify.verify", "all_zeroes_test"),
    ("verify.fingerprint_rep", "matverify.verify", "fingerprint_rep"),
    ("verify.eval_fingerprint_progression", "matverify.verify",
     "eval_fingerprint_progression"),
    ("verify.freivalds_verify", "matverify.verify", "freivalds_verify"),
    ("correct.correct_product", "matverify.correct", "correct_product"),
    ("correct.multiply_output_sensitive", "matverify.correct",
     "multiply_output_sensitive"),
    ("correct.run", "matverify.correct", "CorrectionEngine.run"),
    ("correct.find_nonzero", "matverify.correct", "CorrectionEngine.find_nonzero"),
    ("correct.scratch_values", "matverify.correct", "CorrectionEngine.scratch_values"),
    ("correct.apply_write", "matverify.correct", "CorrectionEngine.apply_write"),
    ("correct.exact_inner", "matverify.correct", "CorrectionEngine.exact_inner"),
    ("cli.main", "matverify.cli", "main"),
)

LAYERS = ("field", "poly", "matrix", "verify", "correct", "cli")

ROOT = "<root>"


class Aggregate:
    """Calls, total and self seconds, and probe counters for one
    (span, parent) pair."""

    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra: dict[str, float] = {}

    def add_extra(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    """A stack of open spans plus the aggregates of closed ones."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = [[ROOT, 0.0, 0.0]]   # [name, start, time covered by children]
        self.aggs: dict[tuple[str, str], Aggregate] = {}
        self.missing: set[str] = set()    # span names that could not be installed
        self.broken: set[str] = set()     # span names whose probe failed

    def enter(self, name: str) -> list:
        frame = [name, 0.0, 0.0]
        self.stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list) -> Aggregate:
        dur = self.clock() - frame[1]
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        parent[2] += dur
        key = (frame[0], parent[0])
        agg = self.aggs.get(key)
        if agg is None:
            agg = self.aggs[key] = Aggregate()
        agg.calls += 1
        agg.total += dur
        agg.self_time += dur - frame[2]
        return agg


# -- probes: (before(args, kwargs) -> (args, kwargs, note), after(note, result, agg))


def _progression_before(args, kwargs):
    import numpy as np

    coeffs, first, ratio, count, p = args[:5]
    nz = np.flatnonzero(coeffs)
    eff = int(nz[-1]) + 1 if nz.size else 0
    # the seed kernel's branch rule: the chirp path needs >= 2 nonzero
    # coefficients, a word-size prime, a nonzero ratio and 8+ terms and points
    chirp = nz.size >= 2 and p < _WORD and ratio % p and eff >= 8 and count >= 8
    return args, kwargs, (eff * count, 0 if chirp else 1)


def _progression_after(note, result, agg):
    agg.add_extra("coeff_points", note[0])
    agg.add_extra("fallback", note[1])


def _efp_before(args, kwargs):
    # count evaluations with the function's own counter, passing a private
    # dict where the caller passed none
    stats = args[3] if len(args) > 3 else kwargs.get("stats")
    if stats is None:
        stats = {}
        if len(args) > 3:
            args = args[:3] + (stats,) + args[4:]
        else:
            kwargs = dict(kwargs, stats=stats)
    return args, kwargs, (stats, stats.get("evaluations", 0))


def _efp_after(note, result, agg):
    stats, before = note
    agg.add_extra("evaluations", stats["evaluations"] - before)


def _basis_after(note, result, agg):
    agg.add_extra("primes", len(result.fields))


def _read_before(args, kwargs):
    return args, kwargs, os.path.getsize(args[0] if args else kwargs["path"])


def _read_after(note, result, agg):
    agg.add_extra("bytes", note)


def _correction_after(note, result, agg):
    agg.add_extra("results", 1)
    agg.add_extra("max_granularity", result.max_granularity)


PROBES = {
    "poly.progression_eval": (_progression_before, _progression_after),
    "verify.eval_fingerprint_progression": (_efp_before, _efp_after),
    "field.build_crt_basis": (None, _basis_after),
    "matrix.read_matrix": (_read_before, _read_after),
    "correct.correct_product": (None, _correction_after),
    "correct.multiply_output_sensitive": (None, _correction_after),
}


def _wrap(tracer: Tracer, name: str, fn):
    before, after = PROBES.get(name, (None, None))
    enter, exit_ = tracer.enter, tracer.exit

    if before is None and after is None:
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
        return traced

    def probed(*args, **kwargs):
        note = None
        if before is not None:
            try:
                args, kwargs, note = before(args, kwargs)
            except Exception:
                tracer.broken.add(name)
        frame = enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            agg = exit_(frame)
        if after is not None and name not in tracer.broken:
            try:
                after(note, result, agg)
            except Exception:
                tracer.broken.add(name)
        return result

    return probed


class Installed:
    """Handle on the patched attributes; ``uninstall`` restores them."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every target in TARGETS at every matverify module attribute
    that holds it. Names that do not resolve are recorded as missing."""
    handle = Installed()
    for name, modname, attr in TARGETS:
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            tracer.missing.add(name)
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            original = cls.__dict__.get(meth) if cls is not None else None
            if original is None:
                tracer.missing.add(name)
                continue
            handle.patches.append((cls, meth, original))
            setattr(cls, meth, _wrap(tracer, name, original))
            continue
        original = getattr(mod, attr, None)
        if original is None:
            tracer.missing.add(name)
            continue
        wrapper = _wrap(tracer, name, original)
        for mname, module in list(sys.modules.items()):
            if module is None or not (mname == "matverify" or mname.startswith("matverify.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    handle.patches.append((module, key, original))
                    setattr(module, key, wrapper)
    return handle


# -- metrics -----------------------------------------------------------------

# (metric, unit, better, spans it needs); a layer's self time needs none
PER_LAYER = (
    ("poly.self_s", "s/op", "lower", ()),
    ("poly.progression_eval.calls", "1/op", "lower", ("poly.progression_eval",)),
    ("poly.progression_eval.s", "s/op", "lower", ("poly.progression_eval",)),
    ("poly.coeff_points", "1/op", "lower", ("poly.progression_eval",)),
    ("poly.coeff_points_per_s", "1/s", "higher", ("poly.progression_eval",)),
    ("poly.fallback_frac", "ratio", "lower", ("poly.progression_eval",)),
    ("verify.self_s", "s/op", "lower", ()),
    ("verify.verify_product.calls", "1/op", "lower", ("verify.verify_product",)),
    ("verify.verify_product.s", "s/op", "lower", ("verify.verify_product",)),
    ("verify.all_zeroes_test.calls", "1/op", "lower", ("verify.all_zeroes_test",)),
    ("verify.primes_tested_per_call", "count", "lower",
     ("verify.verify_product", "verify.all_zeroes_test")),
    ("verify.eval_fingerprint_progression.s", "s/op", "lower",
     ("verify.eval_fingerprint_progression",)),
    ("verify.evaluations", "1/op", "lower",
     ("verify.eval_fingerprint_progression", "verify.all_zeroes_test")),
    ("matrix.self_s", "s/op", "lower", ()),
    ("matrix.read_matrix.s", "s/op", "lower", ("matrix.read_matrix",)),
    ("matrix.read_matrix.mb_per_s", "MB/s", "higher", ("matrix.read_matrix",)),
    ("matrix.write_matrix.s", "s/op", "lower", ("matrix.write_matrix",)),
    ("matrix.reduced.calls", "1/op", "lower", ("matrix.reduced",)),
    ("matrix.reduced.s", "s/op", "lower", ("matrix.reduced",)),
    ("matrix.pad_to_pow2.s", "s/op", "lower", ("matrix.pad_to_pow2",)),
    ("field.self_s", "s/op", "lower", ()),
    ("field.build_crt_basis.calls", "1/op", "lower", ("field.build_crt_basis",)),
    ("field.build_crt_basis.s", "s/op", "lower", ("field.build_crt_basis",)),
    ("field.find_generator.s", "s/op", "lower", ("field.find_generator",)),
    ("field.primes_per_basis", "count", "lower", ("field.build_crt_basis",)),
    ("field.power_sequence.calls", "1/op", "lower", ("field.power_sequence",)),
    ("field.power_sequence.s", "s/op", "lower", ("field.power_sequence",)),
    ("correct.self_s", "s/op", "lower", ()),
    ("correct.find_nonzero.calls", "1/op", "lower", ("correct.find_nonzero",)),
    ("correct.find_nonzero.s", "s/op", "lower", ("correct.find_nonzero",)),
    ("correct.scratch_values.calls", "1/op", "lower", ("correct.scratch_values",)),
    ("correct.scratch_values.s", "s/op", "lower", ("correct.scratch_values",)),
    ("correct.apply_write.calls", "1/op", "lower", ("correct.apply_write",)),
    ("correct.apply_write.s", "s/op", "lower", ("correct.apply_write",)),
    ("correct.exact_inner.calls", "1/op", "lower", ("correct.exact_inner",)),
    ("correct.exact_inner.s", "s/op", "lower", ("correct.exact_inner",)),
    ("correct.sweep_s", "s/op", "lower",
     ("verify.verify_product", "correct.correct_product",
      "correct.multiply_output_sensitive")),
    ("correct.evaluations", "1/op", "lower",
     ("verify.eval_fingerprint_progression", "correct.scratch_values")),
    ("correct.prime_passes", "1/op", "lower", ("correct.run",)),
    ("correct.max_granularity", "count", "lower",
     ("correct.correct_product", "correct.multiply_output_sensitive")),
    ("correct.evals_per_fix", "count", "lower",
     ("verify.eval_fingerprint_progression", "correct.scratch_values",
      "correct.apply_write")),
    ("cli.main.s", "s/op", "lower", ("cli.main",)),
)

_PROBED_BY = {
    "poly.coeff_points": "poly.progression_eval",
    "poly.coeff_points_per_s": "poly.progression_eval",
    "poly.fallback_frac": "poly.progression_eval",
    "verify.evaluations": "verify.eval_fingerprint_progression",
    "correct.evaluations": "verify.eval_fingerprint_progression",
    "correct.evals_per_fix": "verify.eval_fingerprint_progression",
    "field.primes_per_basis": "field.build_crt_basis",
    "matrix.read_matrix.mb_per_s": "matrix.read_matrix",
    "correct.max_granularity": "correct.correct_product",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics, per operation unless the unit says otherwise."""
    by_name: dict[str, list] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for (name, _parent), agg in tracer.aggs.items():
        acc = by_name.setdefault(name, [0, 0.0])
        acc[0] += agg.calls
        acc[1] += agg.total
        self_by_layer[name.split(".", 1)[0]] += agg.self_time

    def calls(name):
        return by_name.get(name, (0, 0.0))[0]

    def seconds(name):
        return by_name.get(name, (0, 0.0))[1]

    def extra(name, key, parent=None):
        return sum(a.extra.get(key, 0) for (n, p), a in tracer.aggs.items()
                   if n == name and (parent is None or p in parent))

    def per_op(x):
        return _ratio(x, ops)

    pe = "poly.progression_eval"
    efp = "verify.eval_fingerprint_progression"
    correctors = ("correct.correct_product", "correct.multiply_output_sensitive")
    sweep = sum(a.total for (n, p), a in tracer.aggs.items()
                if n == "verify.verify_product" and p in correctors)
    correct_evals = extra(efp, "evaluations", ("correct.scratch_values",))
    results = sum(extra(c, "results") for c in correctors)
    direct = tracer.aggs.get(("verify.all_zeroes_test", "verify.verify_product"))
    special = {
        "poly.coeff_points": per_op(extra(pe, "coeff_points")),
        "poly.coeff_points_per_s": _ratio(extra(pe, "coeff_points"), seconds(pe)),
        "poly.fallback_frac": _ratio(extra(pe, "fallback"), calls(pe)),
        "verify.primes_tested_per_call": _ratio(
            direct.calls if direct else 0, calls("verify.verify_product")),
        "verify.evaluations": per_op(
            extra(efp, "evaluations", ("verify.all_zeroes_test",))),
        "matrix.read_matrix.mb_per_s": _ratio(
            extra("matrix.read_matrix", "bytes") / 1e6, seconds("matrix.read_matrix")),
        "field.primes_per_basis": _ratio(
            extra("field.build_crt_basis", "primes"), calls("field.build_crt_basis")),
        "correct.sweep_s": per_op(sweep),
        "correct.evaluations": per_op(correct_evals),
        "correct.prime_passes": per_op(calls("correct.run")),
        "correct.max_granularity": _ratio(
            sum(extra(c, "max_granularity") for c in correctors), results),
        "correct.evals_per_fix": _ratio(correct_evals, calls("correct.apply_write")),
    }

    def value(metric):
        # <layer>.self_s, <span>.calls and <span>.s follow from the aggregates
        stem, _, kind = metric.rpartition(".")
        if metric in special:
            return special[metric]
        if kind == "self_s":
            return per_op(self_by_layer[stem])
        if kind == "calls":
            return per_op(calls(stem))
        if kind == "s":
            return per_op(seconds(stem))
        raise KeyError(metric)

    gone = tracer.missing
    out = {}
    for metric, _unit, _better, needs in PER_LAYER:
        if gone.intersection(needs) or _PROBED_BY.get(metric) in tracer.broken:
            out[metric] = "unmeasured"
        else:
            out[metric] = value(metric)
    return out

