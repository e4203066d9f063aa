"""Acceptance gate: the twelve-point verification checklist.

One test per checklist item; each prints its own pass/fail line (visible
with -s or in the CLI `latcong verify` output, which runs the same
checks).  Everything is exact: counts and equalities, no tolerances.
"""


import pytest

from latcong import verify
from latcong.cli import main
from latcong.errors import LatcongError


def _gate(result):
    print(result.render())
    assert result.passed, result.detail


def test_unknown_suite_is_a_latcong_error():
    with pytest.raises(LatcongError, match="unknown suite 'nope'"):
        verify.check_ids("nope")


def test_ac01_principal_formula_matches_closure():
    """Closed-form principal congruences equal the closure oracle on
    chains (2..5), boolean cubes (2..3), and chain(2) x chain(3)."""
    _gate(verify.check_principal_formula_matches_closure())


def test_ac02_formula_needs_distributivity():
    """On the pentagon and the diamond the closed form must fail for at
    least one comparable pair."""
    _gate(verify.check_formula_needs_distributivity())


def test_ac03_congruence_counts():
    """|Con(chain(k))| = 2^(k-1) for k = 2..5, cross-checked against raw
    partition filtering for k <= 4 and boolean(2) = 4."""
    _gate(verify.check_congruence_counts())


def test_ac04_median_equivalence():
    """Congruence preservation iff median decomposition over all monotone
    tables on chain(3) (n = 1, 2) and boolean(2) (n = 1); the unary
    chain(3) counts are exactly 10 monotone / 6 compatible."""
    _gate(verify.check_median_equivalence())


def test_ac05_boolean_restriction_injective():
    """No two compatible monotone tables share their boolean vertices."""
    _gate(verify.check_boolean_restriction_injective())


def test_ac06_reconstruction():
    """Normal-form rebuild reproduces exactly the compatible tables and
    mismatches every incompatible one."""
    _gate(verify.check_reconstruction())


def test_ac07_capacity_bijection():
    """Compatible aggregation tables <-> capacities: 4 on chain(2) n=2,
    9 on chain(3) n=2; extraction round-trips on chain(3) for n <= 3."""
    _gate(verify.check_capacity_bijection())


def test_ac08_formulation_agreement():
    """Level, pointwise, and subset formulations agree on chain(3) and
    chain(4) for n = 2, 3; the boolean(2) report is generated unasserted."""
    _gate(verify.check_formulation_agreement())


def test_ac09_chain_properties():
    """Idempotency, min-homogeneity, comonotone and horizontal maxitivity
    hold for every capacity on chain(3) and chain(4) at n = 2."""
    _gate(verify.check_chain_properties())


def test_ac10_decompositions():
    """Product splitting on chain(2)^2 and chain(2) x chain(3); horizontal
    splitting on chain(3)+chain(3); chain(4)+chain(4) must refuse."""
    _gate(verify.check_decompositions())


def test_ac11_polynomial_compatibility():
    """1000 random terms per lattice (depth <= 4, n <= 3) on chain(3) and
    boolean(2) all preserve congruences."""
    _gate(verify.check_polynomial_compatibility())


def test_ac12_roundtrips():
    """All four text formats round-trip byte-for-byte."""
    _gate(verify.check_roundtrips())


def test_ac12_verify_reports_are_byte_identical(capsys):
    """Two full checklist runs print identical bytes and exit 0."""
    code_a = main(["verify"])
    out_a = capsys.readouterr().out
    code_b = main(["verify"])
    out_b = capsys.readouterr().out
    print("verify determinism:", "identical" if out_a == out_b else "DIFFERS")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.endswith("12/12 checks passed\n")
