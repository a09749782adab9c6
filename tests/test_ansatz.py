"""Solving for unknown structure constants."""

from fractions import Fraction

import pytest

from nlca.algebra import Presentation
from nlca.ansatz import (AnsatzError, extract_system, solve_and_substitute,
                         substitute_unknowns)
from nlca.frontend import ParseError
from nlca.scalars import nullspace, scalar_field

from builders import make_virasoro, make_w3


@pytest.fixture(scope="module")
def wwl_system(w3_ansatz):
    return extract_system(w3_ansatz, triples=[("W", "W", "L")])


def test_wwl_system_shape(wwl_system):
    sys = wwl_system
    assert sys.unknowns == ("alpha", "beta", "gamma", "delta", "epsilon")
    assert len(sys.rows) == 20
    assert sys.is_homogeneous()


def test_wwl_nullspace_line(wwl_system):
    f = scalar_field(("c",))
    c = f.param("c")
    basis = nullspace(wwl_system)
    assert basis == [[
        f.one,
        f.zero,
        (c - 10) / 48,
        (5 * c + 22) / 96,
        (5 * c * c + 22 * c) / 5760,
    ]]


def test_pin_delta_recovers_the_table(w3_ansatz, wwl_system):
    f = scalar_field(("c",))
    c = f.param("c")
    res = solve_and_substitute(w3_ansatz, wwl_system,
                               ("delta", Fraction(1, 6)))
    assert res.values == {
        "alpha": 16 / (5 * c + 22),
        "beta": f.zero,
        "gamma": (c - 10) / (15 * c + 66),
        "delta": f.convert(Fraction(1, 6)),
        "epsilon": c / 360,
    }
    assert res.report.ok
    reference = make_w3()
    assert sorted(res.presentation.given_pairs()) == \
        sorted(reference.given_pairs())
    for (i, j) in reference.given_pairs():
        got = res.presentation.pair_coeffs(i, j)
        want = reference.pair_coeffs(i, j)
        assert len(got) == len(want)
        for X, Y in zip(got, want):
            assert X.terms == Y.terms


def test_pin_accepts_strings(w3_ansatz, wwl_system):
    f = scalar_field(("c",))
    res = solve_and_substitute(w3_ansatz, wwl_system, ("delta", "1/6"))
    assert res.values["delta"] == f.convert(Fraction(1, 6))
    assert res.values["beta"] == f.zero


def test_rescaled_pin_is_still_an_algebra(w3_ansatz, wwl_system):
    # W -> sW moves the point along the solution line; every point of the
    # line satisfies all Jacobi identities, including the cubic one
    f = scalar_field(("c",))
    c = f.param("c")
    res = solve_and_substitute(w3_ansatz, wwl_system,
                               ("delta", Fraction(1, 3)))
    assert res.values == {
        "alpha": 32 / (5 * c + 22),
        "beta": f.zero,
        "gamma": (2 * c - 20) / (15 * c + 66),
        "delta": f.convert(Fraction(1, 3)),
        "epsilon": c / 180,
    }
    assert res.report.ok


def test_pin_on_vanishing_coordinate(w3_ansatz, wwl_system):
    with pytest.raises(AnsatzError, match="vanishes on the solution line"):
        solve_and_substitute(w3_ansatz, wwl_system, ("beta", 1))


def test_pin_errors(w3_ansatz, wwl_system):
    with pytest.raises(AnsatzError, match="not an unknown"):
        solve_and_substitute(w3_ansatz, wwl_system, ("zeta", 1))
    with pytest.raises(AnsatzError, match="cannot interpret pin value"):
        solve_and_substitute(w3_ansatz, wwl_system, ("delta", None))
    with pytest.raises(ParseError):
        solve_and_substitute(w3_ansatz, wwl_system, ("delta", "c +"))
    # a zero pin would scale the solution line to the zero table
    for zero in (0, Fraction(0), "c - c"):
        with pytest.raises(AnsatzError, match="pinning delta to 0"):
            solve_and_substitute(w3_ansatz, wwl_system, ("delta", zero))


def test_cubic_triple_raises_by_default(w3_ansatz):
    with pytest.raises(AnsatzError, match="leaves the linear regime"):
        extract_system(w3_ansatz, triples=[("W", "W", "W")])


def test_skip_nonlinear_collects_triples(w3_ansatz, wwl_system):
    skipped = []
    sys = extract_system(w3_ansatz, skipped=skipped)
    assert skipped == [("W", "W", "W")]
    assert len(sys.rows) == 32
    assert nullspace(sys) == nullspace(wwl_system)


def test_central_charge_is_a_free_direction():
    # Virasoro with an unknown central term: Jacobi never constrains it
    p = Presentation([("L", 0, 2, 2)], unknowns=("eps",))
    e = p.field.param("eps")
    p.set_bracket("L", "L", [p.gen("L", 1), p.gen("L").scale(2), p.zero(),
                             p.unit().scale(e / 12)])
    sys = extract_system(p)
    assert sys.rows == []
    f = scalar_field(())
    assert nullspace(sys) == [[f.one]]
    res = solve_and_substitute(p, sys, ("eps", 5))
    assert res.values == {"eps": f.convert(5)}
    assert res.report.ok


def test_extract_requires_unknowns():
    with pytest.raises(AnsatzError, match="declares no unknowns"):
        extract_system(make_virasoro())


def test_extract_rejects_invalid_tables():
    p = Presentation([("L", 0, 2, 2)], unknowns=("u",))
    u = p.field.param("u")
    p.set_bracket("L", "L", [p.gen("L", 1).scale(u * u)])
    with pytest.raises(AnsatzError, match="invalid presentation"):
        extract_system(p)


def test_substitute_unknowns_direct(w3_ansatz):
    f = scalar_field(("c",))
    c = f.param("c")
    values = {
        "alpha": 16 / (5 * c + 22),
        "beta": f.zero,
        "gamma": (c - 10) / (15 * c + 66),
        "delta": f.convert(Fraction(1, 6)),
        "epsilon": c / 360,
    }
    solved = substitute_unknowns(w3_ansatz, values)
    reference = make_w3()
    for (i, j) in reference.given_pairs():
        for X, Y in zip(solved.pair_coeffs(i, j),
                        reference.pair_coeffs(i, j)):
            assert X.terms == Y.terms
