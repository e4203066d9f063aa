"""The repository's verification checklist, runnable as a batch.

Each check pits an implementation against an independent route: closed-form
principal congruences against the fixpoint closure, join-closure congruence
counts against raw partition filtering, the four characterizations of
compatibility against each other over exhaustive enumerations, and the
three integral formulations against each other on chains.  Checks return
plain result rows so the CLI and the test suite can share them; all
iteration orders are fixed, making repeated runs byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import io
# is_compatible and is_monotone are not called here; perfbench's tracer
# rebinds them in every module that imports them, and its self-test looks
# for them in this one.
from .compat import _compatible_rows, is_compatible, verify_equivalence_suite
from .congruences import (
    all_congruences,
    all_congruences_bruteforce,
    formula_relation,
    is_congruence,
    principal_congruence,
    principal_congruence_fixpoint,
)
from .constructions import (
    _part_rows,
    _split_rows,
    direct_product,
    horizontal_sum,
    horizontal_sum_decomposition_check,
)
from .errors import InvalidArgument, NotDistributive
from .lattice import catalogue
from .polynomials import _code_rows, _monotone_rows, _random_code, \
    _rebuild_rows, is_monotone, random_polynomial
from .sugeno import (
    Capacity,
    _capacity_blocks,
    _comonotone_maxitive_rows,
    _horizontally_maxitive_rows,
    _idempotent_rows,
    _min_homogeneous_rows,
    compare_formulations,
    enumerate_capacities,
    sugeno_table,
)
from .tables import _plan

RANDOM_SEED = 367368


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    name: str
    passed: bool
    detail: str

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.check_id} {self.name}: {self.detail}"


def _comparable_pairs(L):
    return [(a, b) for a in range(L.size) for b in range(L.size) if L.leq(a, b)]


# The catalogue lattices of the checks, each built once per process.
_catalogue = lru_cache(maxsize=None)(catalogue)


@lru_cache(maxsize=None)
def _product_2x3():
    return direct_product([_catalogue("chain(2)"), _catalogue("chain(3)")])


def check_principal_formula_matches_closure() -> CheckResult:
    """Closed-form principal congruences agree with the fixpoint closure."""
    lattices = [_catalogue(f"chain({k})") for k in (2, 3, 4, 5)]
    lattices += [_catalogue("boolean(2)"), _catalogue("boolean(3)")]
    lattices.append(_product_2x3())
    pairs = 0
    mismatches = 0
    for L in lattices:
        for a, b in _comparable_pairs(L):
            pairs += 1
            if principal_congruence(L, a, b) != principal_congruence_fixpoint(L, a, b):
                mismatches += 1
    return CheckResult(
        "AC01", "principal congruence formula vs closure",
        mismatches == 0,
        f"{mismatches} mismatches over {pairs} pairs on {len(lattices)} lattices")


def check_formula_needs_distributivity() -> CheckResult:
    """On N5 and M3 the closed-form relation must break down somewhere."""
    details = []
    ok = True
    for name in ("N5", "M3"):
        L = _catalogue(name)
        failures = 0
        for a, b in _comparable_pairs(L):
            rel = formula_relation(L, a, b)
            if not is_congruence(L, rel):
                failures += 1
            elif rel != principal_congruence_fixpoint(L, a, b):
                failures += 1
        ok = ok and failures > 0
        details.append(f"{name}: {failures} failing pairs")
    return CheckResult(
        "AC02", "closed form fails off distributive lattices",
        ok, "; ".join(details))


def check_congruence_counts() -> CheckResult:
    """|Con(chain(k))| = 2^(k-1), cross-checked by partition filtering."""
    problems = []
    details = []
    for k in (2, 3, 4, 5):
        L = _catalogue(f"chain({k})")
        congs = all_congruences(L)
        expected = 2 ** (k - 1)
        details.append(f"chain({k}): {len(congs)}")
        if len(congs) != expected:
            problems.append(f"chain({k}) gave {len(congs)}, expected {expected}")
        if k <= 4 and tuple(congs) != all_congruences_bruteforce(L):
            problems.append(f"chain({k}) join-closure differs from filtering")
    B2 = _catalogue("boolean(2)")
    congs = all_congruences(B2)
    details.append(f"boolean(2): {len(congs)}")
    if len(congs) != 4:
        problems.append(f"boolean(2) gave {len(congs)}, expected 4")
    if tuple(congs) != all_congruences_bruteforce(B2):
        problems.append("boolean(2) join-closure differs from filtering")
    return CheckResult(
        "AC03", "congruence counts on chains and boolean(2)",
        not problems, "; ".join(problems or details))


@lru_cache(maxsize=None)
def _equivalence_reports():
    return (
        verify_equivalence_suite(_catalogue("chain(3)"), 1),
        verify_equivalence_suite(_catalogue("chain(3)"), 2),
        verify_equivalence_suite(_catalogue("boolean(2)"), 1),
    )


def check_median_equivalence() -> CheckResult:
    """Congruence preservation iff median decomposition, exhaustively."""
    reports = _equivalence_reports()
    problems = []
    for r in reports:
        problems.extend(r.equivalence_violations)
    r1 = reports[0]
    if r1.monotone_count != 10:
        problems.append(f"chain(3) unary monotone count {r1.monotone_count} != 10")
    if r1.compatible_count != 6:
        problems.append(f"chain(3) unary compatible count {r1.compatible_count} != 6")
    detail = "; ".join(
        f"{r.lattice_name} n={r.arity}: {r.monotone_count} monotone, "
        f"{r.compatible_count} compatible" for r in reports)
    return CheckResult(
        "AC04", "median decomposition equivalence",
        not problems, "; ".join(problems) if problems else detail)


def check_boolean_restriction_injective() -> CheckResult:
    """Distinct compatible tables have distinct boolean restrictions."""
    collisions = []
    for r in _equivalence_reports():
        collisions.extend(r.restriction_collisions)
    total = sum(r.compatible_count for r in _equivalence_reports())
    return CheckResult(
        "AC05", "boolean restriction is injective",
        not collisions,
        "; ".join(collisions) if collisions
        else f"0 collisions among {total} compatible tables")


def check_reconstruction() -> CheckResult:
    """Normal-form rebuild succeeds exactly on the compatible tables."""
    problems = []
    for r in _equivalence_reports():
        problems.extend(r.equivalence_violations)
        problems.extend(r.integral_violations)
    total = sum(r.monotone_count for r in _equivalence_reports())
    return CheckResult(
        "AC06", "normal-form reconstruction",
        not problems,
        "; ".join(problems) if problems else f"0 exceptions over {total} tables")


def _rows_where(mask, block):
    """The rows of a block that ``mask`` selects, as tuples of ints."""
    return [tuple(row) for row in block[mask].tolist()]


def _round_trip_rows(plan, block):
    """Per capacity row: its integral's table passes the checks of
    ``capacity_from_function`` (ends at bottom and top, nondecreasing) and
    gives the row back at the boolean vertices."""
    L, table = plan.lattice, _rebuild_rows(plan, block)
    ends = (table[:, plan.vertices[0]] == L.bottom) \
        & (table[:, plan.vertices[-1]] == L.top)
    return ends & _monotone_rows(plan, table) \
        & (table[:, plan.vertices] == block).all(axis=1)


def check_capacity_bijection() -> CheckResult:
    """Compatible aggregation tables correspond exactly to capacities."""
    problems = []
    details = []
    for r, expected in ((verify_equivalence_suite(_catalogue("chain(2)"), 2), 4),
                        (_equivalence_reports()[1], 9)):
        name, n = r.lattice_name, r.arity
        details.append(
            f"{name} n={n}: {r.compatible_aggregation_count} tables, "
            f"{r.capacity_count} capacities")
        if r.compatible_aggregation_count != expected \
                or r.capacity_count != expected:
            problems.append(
                f"{name} n={n}: expected {expected}, got "
                f"{r.compatible_aggregation_count} vs {r.capacity_count}")
        if not r.bijection_holds:
            problems.extend(r.integral_violations)
    C3 = _catalogue("chain(3)")
    roundtrips = 0
    for n in (1, 2, 3):
        plan = _plan(C3, n)
        for block in _capacity_blocks(C3, n):
            roundtrips += len(block)
            kept = _round_trip_rows(plan, block)
            problems.extend(f"capacity {row} (n={n}) fails round-trip"
                            for row in _rows_where(~kept, block))
    details.append(f"{roundtrips} chain(3) round-trips")
    return CheckResult(
        "AC07", "capacity <-> integral bijection",
        not problems, "; ".join(problems or details))


def check_formulation_agreement() -> CheckResult:
    """The three integral formulations coincide on chains."""
    problems = []
    details = []
    for name in ("chain(3)", "chain(4)"):
        L = _catalogue(name)
        for n in (2, 3):
            report = compare_formulations(L, n)
            if not report.agree:
                problems.append(
                    f"{name} n={n}: {len(report.disagreements)} disagreements")
            details.append(f"{name} n={n}: {report.capacities} capacities agree")
    side = compare_formulations(_catalogue("boolean(2)"), 2)
    details.append(
        f"boolean(2) n=2 comparator recorded {len(side.disagreements)} "
        f"disagreements (no assertion)")
    return CheckResult(
        "AC08", "formulation agreement on chains",
        not problems, "; ".join(problems or details))


# AC09's laws, in the order a capacity's failures are reported.
LAWS = (("idempotent", _idempotent_rows),
        ("min-homogeneous", _min_homogeneous_rows),
        ("comonotone-maxitive", _comonotone_maxitive_rows),
        ("horizontally-maxitive", _horizontally_maxitive_rows))


def check_chain_properties() -> CheckResult:
    """Idempotency, min-homogeneity, and the two maxitivity laws on chains.

    Each block of capacities is rebuilt once, and each law is one pass of
    its row kernel over the block.
    """
    problems = []
    count = 0
    for name in ("chain(3)", "chain(4)"):
        L = _catalogue(name)
        plan = _plan(L, 2)
        for block in _capacity_blocks(L, 2):
            count += len(block)
            table = _rebuild_rows(plan, block)
            verdicts = np.array([rows(plan, table) for _, rows in LAWS])
            failing = ~verdicts.all(axis=0)
            for row, holds in zip(_rows_where(failing, block), verdicts[:, failing].T):
                problems.extend(f"{name} capacity {row} fails {label}"
                                for (label, _), held in zip(LAWS, holds) if not held)
    return CheckResult(
        "AC09", "axiomatic properties on chains",
        not problems,
        "; ".join(problems) if problems
        else f"4 properties x {count} capacities, 0 violations")


def check_decompositions() -> CheckResult:
    """Product and horizontal-sum splitting of the integral."""
    problems = []
    details = []
    for L in (direct_product([_catalogue("chain(2)")] * 2), _product_2x3(),
              horizontal_sum([_catalogue("chain(3)"), _catalogue("chain(3)")])):
        count = 0
        for block in _capacity_blocks(L, 2):
            count += len(block)
            holds = _split_rows(L, block, _part_rows(L, block))
            problems.extend(f"{L.name} capacity {row} fails splitting"
                            for row in _rows_where(~holds, block))
        details.append(f"{L.name}: {count} capacities")
    bad = horizontal_sum([_catalogue("chain(4)"), _catalogue("chain(4)")])
    if bad.is_distributive:
        problems.append("chain(4)+chain(4) unexpectedly distributive")
    trivial = Capacity(bad, (bad.bottom, bad.bottom, bad.bottom, bad.top))
    try:
        horizontal_sum_decomposition_check(bad, trivial)
        problems.append("chain(4)+chain(4) splitting did not refuse")
    except NotDistributive:
        outcome = horizontal_sum_decomposition_check(bad, trivial,
                                                     report_only=True)
        details.append(
            f"chain(4)+chain(4) refused; report-only outcome: {outcome}")
    return CheckResult(
        "AC10", "integral splitting over constructions",
        not problems, "; ".join(problems or details))


def _random_codes(L):
    """AC11's sample on L: 1000 random term codes of arity 1 to 3, each
    arity drawn just before its code, from ``RANDOM_SEED``; as pairs of
    arity and code.  The arity is drawn as ``rng.randint(1, 3)`` draws it,
    by rejection on ``rng.getrandbits(2)``."""
    rng = random.Random(RANDOM_SEED)
    getrandbits = rng.getrandbits
    for _ in range(1000):
        n = getrandbits(2)
        while n >= 3:
            n = getrandbits(2)
        yield n + 1, _random_code(rng, n + 1, L.size, max_depth=4)


def _code_groups(L):
    """AC11's sample on L as pairs of an arity and the list of every code
    drawn with that arity, in draw order."""
    groups = {}
    for n, code in _random_codes(L):
        groups.setdefault(n, []).append(code)
    return groups.items()


def _polynomial_verdicts(L, n: int, stack):
    """Per row of a stack of n-ary tables on L: monotone and compatible."""
    plan = _plan(L, n)
    return _monotone_rows(plan, stack) & _compatible_rows(plan, stack)


def check_polynomial_compatibility() -> CheckResult:
    """Randomly generated polynomial terms always preserve congruences.

    The terms are drawn as codes and lowered as one stack per lattice and
    arity, and each stack is checked by one pass of each kernel.
    """
    problems = 0
    total = 0
    for name in ("chain(3)", "boolean(2)"):
        L = _catalogue(name)
        for n, codes in _code_groups(L):
            stack = _code_rows(_plan(L, n), codes)
            problems += int((~_polynomial_verdicts(L, n, stack)).sum())
            total += len(codes)
    return CheckResult(
        "AC11", "random polynomials are compatible",
        problems == 0, f"{problems} failures over {total} sampled terms")


def check_roundtrips() -> CheckResult:
    """Every text format survives serialize -> parse -> serialize."""
    problems = []
    count = 0
    lattices = [_catalogue(f"chain({k})") for k in (2, 3, 4, 5)]
    lattices += [_catalogue("boolean(2)"), _catalogue("boolean(3)"),
                 _catalogue("M3"), _catalogue("N5")]
    lattices += [_product_2x3(),
                 horizontal_sum([_catalogue("chain(3)"), _catalogue("chain(3)")])]
    for L in lattices:
        count += 1
        text = io.serialize_lattice(L)
        back = io.parse_lattice(text)
        if back != L or back.name != L.name or back.labels != L.labels \
                or io.serialize_lattice(back) != text:
            problems.append(f"lattice {L.name} does not round-trip")
    C3 = _catalogue("chain(3)")
    for i, m in enumerate(enumerate_capacities(C3, 2)):
        count += 1
        text = io.serialize_capacity(m, f"cap{i}")
        name, back = io.parse_capacity(text, C3)
        if back != m or name != f"cap{i}" \
                or io.serialize_capacity(back, name) != text:
            problems.append(f"capacity {m.coefficients} does not round-trip")
        table = sugeno_table(C3, m)
        count += 1
        ttext = io.serialize_function_table(table, f"fn{i}")
        tname, tback = io.parse_function_table(ttext, C3)
        if tback != table or io.serialize_function_table(tback, tname) != ttext:
            problems.append(f"table of capacity {m.coefficients} does not round-trip")
    rng = random.Random(RANDOM_SEED)
    for _ in range(25):
        p = random_polynomial(rng, 3, C3.size, max_depth=3)
        count += 1
        text = io.serialize_polynomial(p)
        back = io.parse_polynomial(text, arity=p.arity)
        if back != p or io.serialize_polynomial(back) != text:
            problems.append(f"polynomial {text.strip()} does not round-trip")
    return CheckResult(
        "AC12", "file-format round-trips",
        not problems,
        "; ".join(problems) if problems else f"{count} objects round-tripped")


SUITES = {
    "principal": ("AC01", "AC02"),
    "counts": ("AC03",),
    "theorems": ("AC04", "AC05", "AC06"),
    "bijection": ("AC07",),
    "formulations": ("AC08",),
    "properties": ("AC09",),
    "decompositions": ("AC10",),
    "polynomials": ("AC11",),
    "roundtrip": ("AC12",),
}

_CHECKS = {
    "AC01": check_principal_formula_matches_closure,
    "AC02": check_formula_needs_distributivity,
    "AC03": check_congruence_counts,
    "AC04": check_median_equivalence,
    "AC05": check_boolean_restriction_injective,
    "AC06": check_reconstruction,
    "AC07": check_capacity_bijection,
    "AC08": check_formulation_agreement,
    "AC09": check_chain_properties,
    "AC10": check_decompositions,
    "AC11": check_polynomial_compatibility,
    "AC12": check_roundtrips,
}


def check_ids(suite: str = "all") -> tuple[str, ...]:
    if suite == "all":
        return tuple(sorted(_CHECKS))
    if suite not in SUITES:
        raise InvalidArgument(
            f"unknown suite {suite!r}; pick one of: all, {', '.join(SUITES)}")
    return SUITES[suite]


def run_checks(suite: str = "all") -> list[CheckResult]:
    """Run a suite at its fixed extents."""
    return [_CHECKS[cid]() for cid in check_ids(suite)]
