"""Axiom checking with witnesses."""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from nlca.algebra import Presentation, RGen, render_tpoly
from nlca.calculus import Engine
from nlca.formal import LPoly
from nlca.frontend import load_bundled, parse_path
from nlca.pbw import Reducer
from nlca.verify import Witness, all_triples, check_skew, run_all

from builders import (_w3_table, bundled_names, make_broken_skew_virasoro,
                      make_w3)
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


def test_skew_failure_witness():
    p = make_broken_skew_virasoro()
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
    rep = run_all(make_broken_skew_virasoro())
    last = rep.to_text().splitlines()[-1]
    bad = sum(1 for r in rep.results if r.status == "fail")
    assert last == "FAILED: %d check(s)" % bad
    assert bad >= 1


# -- jacobi: triples mirrored when skew passed --------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _two_odd_table():
    """psi and chi odd and distinct, so p(psi, chi) = -1, with a nonlinear
    [psi chi]; skewsymmetric, though Jacobi need not hold."""
    h = Fraction(3, 2)
    p = Presentation([("J", 0, 1, 1), ("psi", 1, h, h), ("chi", 1, h, h)],
                     params=("k",), name="two_odd")
    k = p.field.param("k")
    p.set_bracket("J", "J", [p.zero(), p.unit().scale(k)])
    p.set_bracket("J", "psi", [p.gen("psi")])
    p.set_bracket("J", "chi", [p.gen("chi").scale(-1)])
    p.set_bracket("psi", "chi", [
        p.poly({p.mono("J", "J"): 1, p.mono(("J", 1)): k}),
        p.gen("J").scale(2), p.unit().scale(k)])
    return p


def _inconsistent_w3():
    # [W, L] stored beside [L, W], with 4 where skewsymmetry gives 3
    p = make_w3()
    p.set_bracket("W", "L", [p.gen("W", 1).scale(2), p.gen("W").scale(4)])
    return p


def _skewsymmetric_tables():
    return ([load_bundled(name) for name in bundled_names()]
            + [parse_path(GOLDEN / "w3_perturbed.nlca"), _two_odd_table()])


def _swapped(j, sign):
    """lambda and mu exchanged, times sign."""
    return LPoly(j.pres, j.vars, {(b, a): X.scale(sign)
                                  for (a, b), X in j.terms.items()})


def test_mirrored_jacobiator_is_the_swapped_one():
    # J(b, a, c) at lambda^i mu^j is -p(a,b) J(a, b, c) at lambda^j mu^i,
    # exactly, before and after normal ordering
    odd_nonzero = 0
    for p in _skewsymmetric_tables():
        e = Engine(p)
        r = Reducer(e)
        assert check_skew(p, e).status == "pass", p.name
        ops = [p.gen(g.name, n) for n in (0, 1) for g in p.generators]
        for x, y in combinations(ops, 2):
            sign = -p.parity_sign(next(iter(x.terms)), next(iter(y.terms)))
            for g in p.generators:
                z = p.gen(g.name)
                j, mirrored = e.jacobiator(x, y, z), e.jacobiator(y, x, z)
                assert mirrored == _swapped(j, sign), (p.name, x, y, z)
                assert r.normal_order_lpoly(mirrored) == _swapped(
                    r.normal_order_lpoly(j), sign), (p.name, x, y, z)
                odd_nonzero += sign == 1 and not j.is_zero
    assert odd_nonzero


def direct_jacobi(p):
    """The jacobi row of run_all's JSON, from every triple computed."""
    e = Engine(p)
    r = Reducer(e)
    witnesses, notes = [], []
    for t in all_triples(p):
        j = e.jacobiator(*(p.gen(name) for name in t))
        if j.is_zero:
            continue
        red = r.normal_order_lpoly(j)
        if red.is_zero:
            top = max(p.mono_degree(m)
                      for X in j.terms.values() for m in X.terms)
            notes.append("jacobiator(%s, %s, %s) has a nonzero pre-reduction "
                         "residue of top degree %s; zero after normal "
                         "ordering" % (*t, top))
        for ex in sorted(red.terms):
            where = " ".join("%s^%d" % (v, k)
                             for v, k in zip(red.vars, ex) if k)
            witnesses.append({"operands": list(t),
                              "where": where or "constant term",
                              "residue": render_tpoly(red.terms[ex])})
    return {"check": "jacobi", "status": "fail" if witnesses else "pass",
            "witnesses": witnesses, "notes": notes}


def test_run_all_mirrors_triples_only_when_skew_passed(monkeypatch):
    calls = [0]
    jacobiator = Engine.jacobiator

    def counted(self, *args):
        calls[0] += 1
        return jacobiator(self, *args)
    monkeypatch.setattr(Engine, "jacobiator", counted)
    tables = {p.name: p for p in _skewsymmetric_tables()}
    cases = [(tables[name], n) for name, n in (
        ("w3", 6), ("affine_sl2", 18), ("two_odd", 18), ("w3_perturbed", 6))]
    cases.append((_inconsistent_w3(), 8))
    for p, computed in cases:
        calls[0] = 0
        rep = run_all(p)
        assert calls[0] == computed, p.name
        every = computed == len(p.generators) ** 3
        assert rep.results[1].status == ("fail" if every else "pass")
        assert rep.results[4].to_json() == direct_jacobi(p), p.name


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
