"""Axiom checking with witnesses."""

import random
from fractions import Fraction

from nlca.algebra import Presentation, RGen
from nlca.calculus import Engine
from nlca.verify import Witness, check_skew, run_all

from builders import _w3_table
from conftest import CONCRETE
from randgen import random_coeff

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
    # declared weight is wrong for the table; validate flags every
    # coefficient, and run_all skips the rows that rest on validate
    p = Presentation([("L", 0, 2, 3)], params=("c",))
    c = p.field.param("c")
    p.set_bracket("L", "L", [p.gen("L", 1), p.gen("L").scale(2), p.zero(),
                             p.unit().scale(c / 12)])
    assert p.validate() == [
        "[L,L]: lambda^0 term :T L: has weight 4, expected 5",
        "[L,L]: lambda^1 term :L: has weight 3, expected 4",
        "[L,L]: lambda^3 term 1 has weight 0, expected 2",
    ]
    rep = run_all(p)
    assert [(r.check, r.status) for r in rep.results] == [
        ("validate", "fail"), ("skew", "skipped"), ("weights", "skipped"),
        ("grading", "skipped"), ("jacobi", "skipped")]
    assert rep.results[0].notes == p.validate()


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


# -- validate against a brute-force walk over every ordered pair -------------

HALVES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def _broken_rules(p, i, j, k, mono):
    """The table rules that mono breaks as a lambda^k term of
    [a_i lambda a_j], from the generator declarations alone."""
    gi, gj = p.generators[i], p.generators[j]
    gens = [p.generators[g] for g, _ in mono]
    out = []
    if not sum(g.degree for g in gens) < gi.degree + gj.degree:
        out.append("degree")
    if sum(g.parity for g in gens) % 2 != (gi.parity + gj.parity) % 2:
        out.append("parity")
    if (all(g.weight is not None for g in p.generators)
            and sum(g.weight + n for g, (_, n) in zip(gens, mono))
            != gi.weight + gj.weight - k - 1):
        out.append("weight")
    return out


def _random_rule_table(rng):
    """Up to three generators, some odd, degrees and mostly declared
    weights in halves; each pair's lambda^k coefficients drawn from the
    monomials that obey the rules, now and then with one that may not;
    some pairs stored in both orientations."""
    gens = [("g%d" % i, rng.randrange(2), rng.choice(HALVES),
             rng.choice(HALVES) if rng.random() < 0.8 else None)
            for i in range(rng.randrange(1, 4))]
    p = Presentation(gens)
    n = len(gens)
    pool = [()] + [(RGen(g, t),) for g in range(n) for t in range(3)]
    pool += [(RGen(g, t), RGen(h, 0)) for g in range(n) for h in range(n)
             for t in range(2)]
    both = False
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.3:
                continue
            if i != j and rng.random() < 0.3:
                pairs, both = [(i, j), (j, i)], True
            else:
                pairs = [rng.choice([(i, j), (j, i)])]
            for a, b in pairs:
                coeffs = []
                for k in range(4):
                    fits = [m for m in pool
                            if not _broken_rules(p, a, b, k, m)]
                    picks = rng.sample(fits, min(len(fits), rng.randrange(3)))
                    if rng.random() < 0.06:
                        picks.append(rng.choice(pool))
                    coeffs.append(p.poly({m: random_coeff(rng)
                                          for m in picks}))
                p.set_bracket(gens[a][0], gens[b][0], coeffs)
    return p, both


def test_validate_matches_brute_force_over_all_ordered_pairs():
    # validate walks the stored brackets only; skewsymmetry carries the
    # rules to the derived orientations, which the brute force walks too
    rng = random.Random(43)
    seen = set()
    for _ in range(150):
        p, both = _random_rule_table(rng)
        n = len(p.generators)
        broken = any(_broken_rules(p, i, j, k, mono)
                     for i in range(n) for j in range(n)
                     for k, X in enumerate(p.pair_coeffs(i, j))
                     for mono in X.terms)
        assert (p.validate() == []) == (not broken)
        seen.add((broken, both, p.weights_declared))
    assert {b for b, _, _ in seen} == {False, True}
    assert (False, True, True) in seen
