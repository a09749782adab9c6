"""Axiom checking with witnesses."""

from fractions import Fraction

from nlca.algebra import Presentation
from nlca.calculus import Engine
from nlca.verify import (Witness, check_skew, check_weights, run_all)

from builders import _w3_table
from conftest import CONCRETE

CHECK_NAMES = ["validate", "skew", "weights", "grading", "jacobi"]


def test_run_all_clean(presentations):
    for name in CONCRETE:
        rep = run_all(presentations[name])
        assert [r.check for r in rep.results] == CHECK_NAMES
        assert all(r.status == "pass" for r in rep.results)
        assert rep.ok
        assert rep.to_text().endswith("all checks passed")


def test_jacobi_notes_only_for_nonlinear_tables(presentations):
    for name in ("virasoro", "free_boson", "free_fermion", "affine_sl2"):
        rep = run_all(presentations[name])
        assert rep.results[4].notes == []
    rep = run_all(presentations["w3"])
    assert rep.results[4].notes == [
        "jacobiator(W, W, L) has a nonzero pre-reduction residue of top "
        "degree 4; zero after normal ordering",
        "jacobiator(W, W, W) has a nonzero pre-reduction residue of top "
        "degree 5; zero after normal ordering",
    ]


def _broken_skew_virasoro():
    # lambda coefficient 3 instead of 2: the table is no longer
    # skewsymmetric, though weights and grading still hold
    p = Presentation([("L", 0, 2, 2)], params=("c",))
    c = p.field.param("c")
    p.set_bracket("L", "L", [p.gen("L", 1), p.gen("L").scale(3), p.zero(),
                             p.unit().scale(c / 12)])
    return p


def test_skew_failure_witness():
    p = _broken_skew_virasoro()
    res = check_skew(p, Engine(p))
    assert res.status == "fail"
    assert res.witnesses == [Witness(("L", "L"), "", "-:T L:")]
    rep = run_all(p)
    assert not rep.ok
    assert rep.results[1].status == "fail"
    assert rep.to_text().splitlines()[-1].startswith("FAILED:")


def test_jacobi_failure_witness():
    p = Presentation([("L", 0, 2, 2), ("W", 0, 3, 3)], params=("c",))
    c = p.field.param("c")
    alpha = 16 / (22 + 5 * c)
    _w3_table(p, alpha + 1, p.field.zero, (c - 10) / (3 * (22 + 5 * c)),
              p.field.convert(Fraction(1, 6)), c / 360)
    rep = run_all(p)
    assert [r.status for r in rep.results[:4]] == ["pass"] * 4
    jac = rep.results[4]
    assert jac.status == "fail"
    assert jac.witnesses
    assert all("W" in w.operands for w in jac.witnesses)
    assert all(w.residue for w in jac.witnesses)
    assert not rep.ok


def test_weights_failure_direct():
    # declared weight is wrong for the table; every coefficient is flagged
    p = Presentation([("L", 0, 2, 3)], params=("c",))
    c = p.field.param("c")
    p.set_bracket("L", "L", [p.gen("L", 1), p.gen("L").scale(2), p.zero(),
                             p.unit().scale(c / 12)])
    res = check_weights(p)
    assert res.status == "fail"
    assert [(w.operands, w.where, w.residue) for w in res.witnesses] == [
        (("L", "L"), "lambda^0", ":T L:"),
        (("L", "L"), "lambda^1", "2*:L:"),
        (("L", "L"), "lambda^3", "c/12*1"),
    ]


def test_weightless_presentation_skips_weights():
    p = Presentation([("L", 0, 2, None)], params=("c",))
    c = p.field.param("c")
    p.set_bracket("L", "L", [p.gen("L", 1), p.gen("L").scale(2), p.zero(),
                             p.unit().scale(c / 12)])
    rep = run_all(p)
    assert rep.results[2].check == "weights"
    assert rep.results[2].status == "skipped"
    assert rep.results[2].notes == ["conformal weights not declared"]
    assert rep.ok


def test_validation_failure_skips_the_rest():
    p = Presentation([("L", 0, 2, 2)], params=("c",))
    p.set_bracket("L", "L", [p.poly({p.mono("L", "L"): 1})])
    rep = run_all(p)
    assert rep.results[0].status == "fail"
    assert rep.results[0].notes
    for r in rep.results[1:]:
        assert r.status == "skipped"
        assert r.notes == ["presentation failed validation"]
    assert not rep.ok


def test_report_json_shapes(presentations):
    rep = run_all(presentations["virasoro"])
    assert rep.to_json() == {
        "presentation": "virasoro",
        "ok": True,
        "results": [
            {"check": name, "status": "pass", "witnesses": [], "notes": []}
            for name in CHECK_NAMES
        ],
    }
    # run_all times every check; the times show only in the text form
    assert all(r.time_ms > 0 for r in rep.results)
    assert all(" ms)" in line for line in rep.to_text().splitlines()[:5])
    # deterministic across runs
    again = run_all(presentations["virasoro"])
    assert again.to_json() == rep.to_json()


def test_failed_report_text_counts():
    rep = run_all(_broken_skew_virasoro())
    last = rep.to_text().splitlines()[-1]
    bad = sum(1 for r in rep.results if r.status == "fail")
    assert last == "FAILED: %d check(s)" % bad
    assert bad >= 1
