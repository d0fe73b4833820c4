"""Tracing from outside the program.

The tracer wraps named public functions and methods of matrange. A function
is replaced, by object identity, in every loaded matrange.* module namespace,
so `from .matrices import segre_at` bindings are caught too; a method is
replaced on its class. Each wrapped call records a span (name, start, end,
parent) in memory. GaussianRational arithmetic is counted on the class
without spans. `uninstall` restores every original object, so the untraced
run never sees a wrapper.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute or Class.method, span name, observer)
SPANNED = (
    ("matrange.polynomials", "gaussian_rational_roots", "polynomials.roots", "roots"),
    ("matrange.polynomials", "squarefree_decomposition", "polynomials.squarefree", None),
    ("matrange.polynomials", "critical_value_polynomial", "polynomials.critical_value", None),
    ("matrange.functions", "ramification_profile", "functions.profile", None),
    ("matrange.matrices", "char_poly", "matrices.char_poly", None),
    ("matrange.matrices", "segre_at", "matrices.segre_at", None),
    ("matrange.matrices", "MatrixQi.rank", "matrices.rank", None),
    ("matrange.matrices", "MatrixQi.kernel_basis", "matrices.kernel", None),
    ("matrange.matrices", "MatrixQi.inverse", "matrices.inverse", None),
    ("matrange.matrices", "MatrixQi.__matmul__", "matrices.matmul", None),
    ("matrange.matrices", "jordan_decomposition", "matrices.jordan", None),
    ("matrange.matrices", "apply_poly", "matrices.apply_poly", None),
    ("matrange.ranges", "coverable", "ranges.coverable", "cover"),
    ("matrange.ranges", "decide_range", "ranges.decide", None),
    ("matrange.ranges", "build_witness", "ranges.witness", None),
    ("matrange.ranges", "describe_range", "ranges.describe", None),
)

# (module, attribute or Class.method, counter name): counted, no spans
COUNTED = (
    ("matrange.scalars", "GaussianRational.__mul__", "scalars.mul_count"),
    ("matrange.scalars", "GaussianRational.__add__", "scalars.addsub_count"),
    ("matrange.scalars", "GaussianRational.__sub__", "scalars.addsub_count"),
    ("matrange.scalars", "GaussianRational.__truediv__", "scalars.div_count"),
    ("matrange.ranges", "split_pattern", "ranges.split_pattern_calls"),
)


def _observe_roots(args, result):
    """(input degree, Q(i) roots found counted with multiplicity)."""
    return (args[0].degree, sum(r.multiplicity for r in result))


def _observe_cover(args, result):
    return result is not None


OBSERVERS = {"roots": _observe_roots, "cover": _observe_cover}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, observation]
        self.counts = defaultdict(int)
        self.missing = []  # targets not found in the loaded program
        self._stack = []
        self._restore = []  # (owner, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self):
        for module, target, name, observer in SPANNED:
            self._replace(module, target, lambda fn, n=name, o=observer: self._spanned(n, fn, o))
        for module, target, name in COUNTED:
            self._replace(module, target, lambda fn, n=name: self._counted(n, fn))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _replace(self, module, target, make_wrapper):
        mod = sys.modules.get(module)
        owner_name, _, attr = target.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{target}")
            return
        wrapper = make_wrapper(original)
        if owner_name:  # a method: replace it on the class
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, namespace in list(sys.modules.items()):
            if mod_name != "matrange" and not mod_name.startswith("matrange."):
                continue
            for name, value in list(vars(namespace).items()):
                if value is original:
                    self._restore.append((namespace, name, original))
                    setattr(namespace, name, wrapper)

    def _spanned(self, name, fn, observer):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(observer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results --------------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def layer_metrics(self):
        out = {name: float(self.counts.get(name, 0)) for _, _, name in COUNTED}
        calls = defaultdict(int)
        self_s = defaultdict(float)
        degree_total = found_total = covers = 0
        for (name, _, _, _, seen), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
            if name == "polynomials.roots":
                degree, found = seen or (0, 0)
                degree_total += degree
                found_total += found
                bucket = "deg1-2" if degree <= 2 else "deg3-8" if degree <= 8 else "deg9plus"
                self_s[f"polynomials.roots_s.{bucket}"] += own
            elif name == "ranges.coverable":
                covers += bool(seen)
        out["polynomials.roots_calls"] = calls["polynomials.roots"]
        out["polynomials.roots_s"] = self_s["polynomials.roots"]
        for bucket in ("deg1-2", "deg3-8", "deg9plus"):
            out[f"polynomials.roots_s.{bucket}"] = self_s[f"polynomials.roots_s.{bucket}"]
        out["polynomials.roots_found_ratio"] = found_total / degree_total if degree_total else 0.0
        out["polynomials.squarefree_s"] = self_s["polynomials.squarefree"]
        out["polynomials.critical_value_s"] = self_s["polynomials.critical_value"]
        out["functions.profile_calls"] = calls["functions.profile"]
        out["functions.profile_s"] = self_s["functions.profile"]
        for op in ("char_poly", "segre_at", "rank", "kernel", "inverse", "matmul", "jordan", "apply_poly"):
            out[f"matrices.{op}_calls"] = calls[f"matrices.{op}"]
            out[f"matrices.{op}_s"] = self_s[f"matrices.{op}"]
        cover_calls = calls["ranges.coverable"]
        out["ranges.coverable_calls"] = cover_calls
        out["ranges.coverable_s"] = self_s["ranges.coverable"]
        out["ranges.cover_found_ratio"] = covers / cover_calls if cover_calls else 0.0
        out["ranges.decide_self_s"] = self_s["ranges.decide"]
        out["ranges.witness_self_s"] = self_s["ranges.witness"]
        return out

    def dump(self, path):
        """Write every span as [name, start, end, parent] and the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [[n, s, e, p] for n, s, e, p, _ in self.spans],
                    "counts": dict(self.counts),
                    "missing": self.missing,
                },
                fh,
            )
