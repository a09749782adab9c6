"""Solving for unknown structure constants."""

from fractions import Fraction
from importlib.resources import files

import pytest

from nlca import ansatz
from nlca.algebra import Presentation
from nlca.ansatz import (AnsatzError, extract_system, solve,
                         solve_and_substitute, substitute_unknowns)
from nlca.calculus import Engine
from nlca.frontend import ParseError, load_bundled, parse_source
from nlca.scalars import nullspace, scalar_field
from nlca.verify import run_all

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


# -- the staged solve ----------------------------------------------------------

def virasoro_with_unknown_central_term():
    p = Presentation([("L", 0, 2, 2)], unknowns=("eps",))
    e = p.field.param("eps")
    p.set_bracket("L", "L", [p.gen("L", 1), p.gen("L").scale(2), p.zero(),
                             p.unit().scale(e / 12)])
    return p


# [h,e] = u*:e: in affine sl2: the all-triples rows are inhomogeneous
SL2_TEXT = (files("nlca") / "algebras" / "affine_sl2.nlca") \
    .read_text(encoding="utf-8") \
    .replace("param k;", "param k;\nunknown u;") \
    .replace("[h,e] = 2*:e:;", "[h,e] = u*:e:;")
# Jacobi on (a, a, b) leaves u*(lambda - mu)*1, so u = 0
ZERO_TEXT = ("unknown u;\n"
             "generator a parity=even degree=1 weight=1;\n"
             "generator b parity=even degree=1 weight=1;\n"
             "bracket [a,a] = lambda*1;\nbracket [a,b] = u*:a:;\n")
NAMES_TEXT = ("param \u00e9;\nunknown x\u00b2;\n"
              "generator \u039b parity=even degree=2 weight=2;\n"
              "bracket [\u039b,\u039b] = :T \u039b: + 2*lambda*:\u039b: "
              "+ x\u00b2*lambda^3*1;\n")


def outcome(fn, pres, pin):
    """What a solve gives: values, report and skipped triples, or the
    error text."""
    skipped = []
    try:
        res = fn(pres, pin, skipped)
    except AnsatzError as ex:
        return "error: %s" % ex
    return ({u: (v, str(v)) for u, v in res.values.items()},
            res.report.to_json(), skipped)


def all_triples_solve(pres, pin, skipped):
    return solve_and_substitute(pres, extract_system(pres, skipped=skipped),
                                pin)


@pytest.mark.parametrize("table, pin, solved", [
    ("w3_ansatz", ("delta", "1/6"), True),
    ("w3_ansatz", ("delta", "c"), True),
    ("w3_ansatz", ("delta", "5*c+22"), True),
    ("w3_ansatz", ("alpha", 1), True),
    ("w3_ansatz", ("beta", 1), False),
    ("w3_ansatz", ("delta", 0), False),
    ("sl2", ("u", 2), False),
    ("zero", ("u", 1), False),
    ("names", ("x\u00b2", "\u00e9/12"), True),
    ("virasoro", ("eps", 5), True),
])
def test_staged_solve_is_the_all_triples_solve(table, pin, solved):
    pres = {"w3_ansatz": lambda: load_bundled("w3_ansatz"),
            "sl2": lambda: parse_source(SL2_TEXT),
            "zero": lambda: parse_source(ZERO_TEXT),
            "names": lambda: parse_source(NAMES_TEXT),
            "virasoro": virasoro_with_unknown_central_term}[table]()
    got = outcome(solve, pres, pin)
    assert got == outcome(all_triples_solve, pres, pin)
    assert isinstance(got, tuple) == solved


def test_staged_solve_refuses_before_extracting(monkeypatch):
    def no_extraction(*args, **kwargs):
        raise AssertionError("extracted before refusing")
    monkeypatch.setattr(ansatz, "extract_system", no_extraction)
    w3 = load_bundled("w3_ansatz")
    for pin, error, text in (
            (("zeta", 1), AnsatzError, "'zeta' is not an unknown"),
            (("delta", "c +"), ParseError, "<pin>:1:4"),
            (("delta", None), AnsatzError, "cannot interpret pin value"),
            (("delta", "c - c"), AnsatzError, "pinning delta to 0")):
        with pytest.raises(error, match=text):
            solve(w3, pin)
    # an invalid table is refused before a bad pin
    p = Presentation([("L", 0, 2, 2)], unknowns=("u",))
    u = p.field.param("u")
    p.set_bracket("L", "L", [p.gen("L", 1).scale(u * u)])
    with pytest.raises(AnsatzError, match="invalid presentation"):
        solve(p, ("u", "c +"))
    with pytest.raises(AnsatzError, match="declares no unknowns"):
        solve(make_virasoro(), ("c", 1))


def count_solve(monkeypatch, pres, pin):
    """Jacobiators computed on `pres` and the rows of each system that
    solve extracts."""
    calls, rows = [0], []
    jacobiator, extract = Engine.jacobiator, ansatz.extract_system

    def counted_jacobiator(self, *args):
        calls[0] += self.pres is pres
        return jacobiator(self, *args)

    def counted_extract(*args, **kwargs):
        system = extract(*args, **kwargs)
        rows.append(len(system.rows))
        return system
    monkeypatch.setattr(Engine, "jacobiator", counted_jacobiator)
    monkeypatch.setattr(ansatz, "extract_system", counted_extract)
    try:
        solve(pres, pin)
    except AnsatzError:
        pass
    return calls[0], rows


def test_staged_solve_imposes_the_sorted_triples_only(monkeypatch):
    # (L,L,L), (L,L,W), (L,W,W) and the skipped (W,W,W), not all eight
    assert count_solve(monkeypatch, load_bundled("w3_ansatz"),
                       ("delta", "1/6")) == (4, [11])


def test_unsolved_tables_pay_for_both_stages(monkeypatch):
    # four sorted triples, then the four others: the second stage keeps
    # the first stage's rows
    assert count_solve(monkeypatch, parse_source(ZERO_TEXT),
                       ("u", 1)) == (8, [2, 4])


@pytest.mark.parametrize("table, pin, solved", [
    ("w3_ansatz", ("delta", "1/6"), True),
    ("w3_ansatz", ("beta", 1), False),
    ("sl2", ("u", 2), False),
    ("zero", ("u", 1), False),
])
def test_the_second_stage_system_is_the_all_triples_system(
        monkeypatch, table, pin, solved):
    # the first stage's report is failed, so every table reaches the second
    # stage; w3_ansatz at delta = 1/6 then solves, with (W, W, W) skipped
    pres = {"w3_ansatz": lambda: load_bundled("w3_ansatz"),
            "sl2": lambda: parse_source(SL2_TEXT),
            "zero": lambda: parse_source(ZERO_TEXT)}[table]()
    systems, plain = [], solve_and_substitute

    def recorded(pres, system, pin):
        systems.append(system)
        res = plain(pres, system, pin)
        if len(systems) == 1:
            res.report.results[-1].status = "fail"
        return res
    monkeypatch.setattr(ansatz, "solve_and_substitute", recorded)
    skipped, expected = [], []
    full = extract_system(pres, skipped=expected)
    if solved:
        solve(pres, pin, skipped)
        assert skipped == expected == [("W", "W", "W")]
    else:
        with pytest.raises(AnsatzError):
            solve(pres, pin, skipped)
    assert len(systems) == 2
    assert systems[1].rows == full.rows


def test_an_unverified_first_stage_falls_back(monkeypatch):
    reports = []

    def first_fails(pres):
        report = run_all(pres)
        if not reports:
            report.results[-1].status = "fail"
        reports.append(report)
        return report
    monkeypatch.setattr(ansatz, "run_all", first_fails)
    skipped = []
    res = solve(load_bundled("w3_ansatz"), ("delta", "1/6"), skipped)
    assert len(reports) == 2 and res.report is reports[1] and res.report.ok
    assert skipped == [("W", "W", "W")]
