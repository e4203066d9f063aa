"""Span tracing around latcong's public functions, installed from outside.

Several latcong modules bind their callees with ``from .x import f``, so a
patch on the defining module alone would miss those calls.  ``install``
therefore replaces every binding of a traced function in every loaded
``latcong`` module, including the values of module-level dicts such as
``verify._CHECKS``.  Generators are timed per advancement, and a span's
self time is its duration minus the time of the spans nested in it.

Spans are aggregated per name as they close (calls, self time, total
time) rather than kept one by one, so a scan with a million traced calls
stays small in memory.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute, span).  "Class.method" patches the class itself.
FUNCTIONS = [
    ("latcong.compat", "verify_equivalence_suite", "compat.scan"),
    ("latcong.compat", "is_compatible", "compat.is_compatible"),
    ("latcong.compat", "median_decomposition_check", "compat.median"),
    ("latcong.compat", "synthesize", "compat.synthesize"),
    ("latcong.polynomials", "is_monotone", "polynomials.is_monotone"),
    ("latcong.polynomials", "eval_normal_form", "polynomials.eval_normal_form"),
    ("latcong.polynomials", "to_table", "polynomials.to_table"),
    ("latcong.tables", "FunctionTable.__init__", "tables.construct"),
    ("latcong.sugeno", "sugeno_table", "sugeno.table"),
    ("latcong.sugeno", "capacity_from_function", "sugeno.capacity_from_function"),
    ("latcong.sugeno", "compare_formulations", "sugeno.compare"),
    ("latcong.sugeno", "check_idempotent", "sugeno.properties"),
    ("latcong.sugeno", "check_min_homogeneous", "sugeno.properties"),
    ("latcong.sugeno", "check_comonotone_maxitive", "sugeno.properties"),
    ("latcong.sugeno", "check_horizontally_maxitive", "sugeno.properties"),
    ("latcong.congruences", "principal_congruences", "congruences.principal_set"),
    ("latcong.congruences", "principal_congruence", "congruences.principal"),
    ("latcong.congruences", "principal_congruence_oracle", "congruences.principal"),
    ("latcong.congruences", "all_congruences", "congruences.closure"),
    ("latcong.congruences", "congruence_join", "congruences.join"),
    ("latcong.lattice", "Lattice.__init__", "lattice.init"),
    ("latcong.lattice", "build_from_covers", "lattice.from_covers"),
    ("latcong.constructions", "ProductLattice.__init__", "constructions.build"),
    ("latcong.constructions", "HorizontalSumLattice.__init__", "constructions.build"),
    ("latcong.constructions", "product_decomposition_check", "constructions.decomposition"),
    ("latcong.constructions", "horizontal_sum_decomposition_check",
     "constructions.decomposition"),
    ("latcong.io", "parse_lattice", "io.parse"),
    ("latcong.io", "parse_capacity", "io.parse"),
    ("latcong.io", "parse_function_table", "io.parse"),
    ("latcong.io", "parse_polynomial", "io.parse"),
    ("latcong.io", "serialize_lattice", "io.serialize"),
    ("latcong.io", "serialize_capacity", "io.serialize"),
    ("latcong.io", "serialize_function_table", "io.serialize"),
    ("latcong.io", "serialize_polynomial", "io.serialize"),
]

# Generator functions, timed per item; the item count goes to a counter.
GENERATORS = [
    ("latcong.compat", "enumerate_monotone_tables", "compat.enumerate", "compat.tables"),
    ("latcong.sugeno", "enumerate_capacities", "sugeno.enumerate", "sugeno.capacities"),
]

CHECK_IDS = [f"AC{i:02d}" for i in range(1, 13)]

# Per-layer metric -> spans whose self time it sums ("_s") or whose calls
# it counts ("_calls" and plain counts).
SELF_TIME = {
    "compat.enumerate_s": ["compat.enumerate"],
    "compat.is_compatible_s": ["compat.is_compatible"],
    "compat.median_s": ["compat.median"],
    "compat.synthesize_s": ["compat.synthesize"],
    "compat.scan_self_s": ["compat.scan"],
    "polynomials.is_monotone_s": ["polynomials.is_monotone"],
    "polynomials.eval_normal_form_s": ["polynomials.eval_normal_form"],
    "polynomials.to_table_s": ["polynomials.to_table"],
    "tables.construct_s": ["tables.construct"],
    "sugeno.table_s": ["sugeno.table"],
    "sugeno.enumerate_s": ["sugeno.enumerate"],
    "sugeno.capacity_from_function_s": ["sugeno.capacity_from_function"],
    "sugeno.compare_s": ["sugeno.compare"],
    "sugeno.properties_s": ["sugeno.properties"],
    "congruences.principal_s": ["congruences.principal_set", "congruences.principal"],
    "congruences.closure_s": ["congruences.closure", "congruences.join"],
    "lattice.build_s": ["lattice.init", "lattice.from_covers"],
    "constructions.build_s": ["constructions.build"],
    "constructions.decomposition_s": ["constructions.decomposition"],
    "io.parse_s": ["io.parse"],
    "io.serialize_s": ["io.serialize"],
}
CALLS = {
    "compat.is_compatible_calls": "compat.is_compatible",
    "polynomials.is_monotone_calls": "polynomials.is_monotone",
    "polynomials.eval_normal_form_calls": "polynomials.eval_normal_form",
    "polynomials.to_table_calls": "polynomials.to_table",
    "tables.constructed": "tables.construct",
    "sugeno.table_calls": "sugeno.table",
    "congruences.principal_calls": "congruences.principal",
    "congruences.joins": "congruences.join",
    "lattice.builds": "lattice.init",
}
COUNTERS = ["compat.tables", "sugeno.capacities", "congruences.found",
            "lattice.elements_built", "io.parse_bytes", "io.serialize_bytes"]
# Checks are reported with their inclusive time: a check's own code is
# thin, and its cost is the layers it calls.
INCLUSIVE = {f"verify.{cid}_s": f"verify.{cid}" for cid in CHECK_IDS}
RATIOS = {
    # compatible / monotone tables over all equivalence scans
    "compat.compatible_ratio": ("scan.compatible", "scan.monotone"),
    # new congruences / joins attempted by the join-closure
    "congruences.join_yield": ("congruences.new", "congruences.joins"),
    "polynomials.is_monotone_per_table": ("polynomials.is_monotone_calls", "compat.tables"),
}


class Tracer:
    """Nested spans, aggregated per name, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []          # open spans: [start, time of closed children]
        self.stats = {}          # span -> [calls, self seconds, total seconds]
        self.counters = Counter()

    def _stat(self, span):
        return self.stats.setdefault(span, [0, 0.0, 0.0])

    def _close(self, stat, frame):
        elapsed = self.clock() - frame[0]
        stat[0] += 1
        stat[1] += elapsed - frame[1]
        stat[2] += elapsed
        if self.stack:
            self.stack[-1][1] += elapsed

    def wrap(self, fn, span, post=None):
        stat, stack, clock = self._stat(span), self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self._close(stat, frame)
            if post is not None:
                post(args, result)
            return result
        return traced

    def wrap_generator(self, fn, span, counter):
        stat, stack, clock, counters = \
            self._stat(span), self.stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    self._close(stat, frame)
                counters[counter] += 1
                yield item
        return traced

    def metrics(self) -> dict:
        def stat(span):
            return self.stats.get(span, (0, 0.0, 0.0))

        out = {name: sum(stat(s)[1] for s in spans) for name, spans in SELF_TIME.items()}
        out.update({name: stat(span)[0] for name, span in CALLS.items()})
        out.update({name: self.counters[name] for name in COUNTERS})
        out.update({name: stat(span)[2] for name, span in INCLUSIVE.items()})
        bases = {**self.counters, **out}
        for name, (num, den) in RATIOS.items():
            out[name] = bases.get(num, 0) / bases[den] if bases.get(den) else 0.0
        return out


def _latcong_modules():
    return [m for name, m in sys.modules.items()
            if name == "latcong" or name.startswith("latcong.")]


def install(tracer: Tracer) -> None:
    """Trace every listed function in the latcong modules loaded so far."""
    congruences = sys.modules["latcong.congruences"]
    principal_congruences = congruences.principal_congruences
    counters = tracer.counters

    def count_congruences(args, result):
        counters["congruences.found"] += len(result)
        counters["congruences.new"] += \
            len(result) - len(principal_congruences(args[0]))

    def count_scan(args, report):
        counters["scan.monotone"] += report.monotone_count
        counters["scan.compatible"] += report.compatible_count

    def count_elements(args, result):
        counters["lattice.elements_built"] += args[0].size

    def count_text_in(args, result):
        counters["io.parse_bytes"] += len(args[0].encode())

    def count_text_out(args, result):
        counters["io.serialize_bytes"] += len(result.encode())

    posts = {
        "all_congruences": count_congruences,
        "verify_equivalence_suite": count_scan,
        "Lattice.__init__": count_elements,
    }
    replacements = {}
    for modname, attr, span in FUNCTIONS:
        module = sys.modules[modname]
        post = posts.get(attr)
        if post is None and attr.startswith("parse_"):
            post = count_text_in
        elif post is None and attr.startswith("serialize_"):
            post = count_text_out
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(cls.__dict__[method], span, post))
        else:
            fn = getattr(module, attr)
            replacements[id(fn)] = (fn, tracer.wrap(fn, span, post))
    for modname, attr, span, counter in GENERATORS:
        fn = getattr(sys.modules[modname], attr)
        replacements[id(fn)] = (fn, tracer.wrap_generator(fn, span, counter))
    verify = sys.modules.get("latcong.verify")
    if verify is not None:
        for cid in CHECK_IDS:
            fn = verify._CHECKS[cid]
            replacements[id(fn)] = (fn, tracer.wrap(fn, f"verify.{cid}"))
    _rebind(replacements)


def _rebind(replacements) -> None:
    """Point every module binding and module-level dict entry at the wrapper."""
    def swap(value):
        hit = replacements.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    for module in _latcong_modules():
        for attr, value in list(vars(module).items()):
            new = swap(value)
            if new is not None:
                setattr(module, attr, new)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    new = swap(item)
                    if new is not None:
                        value[key] = new
