from fractions import Fraction

import pytest

from nlca.algebra import AlgebraError, Presentation, RGen, apply_T, render_tmono, render_tpoly
from nlca.calculus import Engine
from nlca.scalars import ScalarError

from builders import (degree, make_affine_sl2, make_free_fermion,
                      make_virasoro, make_w3)


@pytest.fixture(scope="module")
def vir():
    return make_virasoro()


def test_generator_metadata(vir):
    L = vir.rgen("L")
    assert vir.gen_units[L.gen] == 2 * vir.degree_unit
    assert vir.gen_parity[L.gen] == 0
    assert vir.gen_weights[L.gen] == 2 * vir.weight_unit
    assert vir.mono_weight((RGen(L.gen, 3),)) == 5
    assert vir.mono_degree(vir.mono("L", ("L", 4))) == 4
    assert vir.mono_weight(vir.mono("L", ("L", 4))) == 8
    assert vir.mono_degree(()) == 0
    assert vir.mono_weight(()) == 0


def test_rgen_order_degree_first():
    w3 = make_w3()
    # degree is primary, so every T^n L precedes W
    assert w3.rgen_key(w3.rgen("L", 5)) < w3.rgen_key(w3.rgen("W"))
    assert w3.rgen_key(w3.rgen("L")) < w3.rgen_key(w3.rgen("L", 1))
    assert w3.rgen_key(w3.rgen("W")) < w3.rgen_key(w3.rgen("W", 1))


def test_parity_sign():
    fer = make_free_fermion()
    phi = fer.mono("phi")
    assert fer.parity_sign(phi, phi) == -1
    assert fer.parity_sign(phi, ()) == 1
    vir = make_virasoro()
    assert vir.parity_sign(vir.mono("L"), vir.mono("L")) == 1


def test_apply_T_leibniz(vir):
    x = vir.poly({vir.mono("L", "L"): 1})
    TL_L = vir.poly({vir.mono(("L", 1), "L"): 1, vir.mono("L", ("L", 1)): 1})
    assert apply_T(x) == TL_L
    assert apply_T(vir.unit()).is_zero
    assert apply_T(vir.gen("L"), 2) == vir.gen("L", 2)


def test_apply_T_stops_at_zero(vir):
    # T kills the unit; the remaining 10^9 - 1 steps are never taken
    assert apply_T(vir.unit(), 10 ** 9).is_zero


def test_tpoly_arithmetic(vir):
    x = vir.gen("L")
    y = vir.gen("L", 1)
    z = x + y
    assert z - x == y
    assert (z - z).is_zero
    assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x
    assert x.tensor(y) == vir.poly({vir.mono("L", ("L", 1)): 1})
    assert x.tensor(vir.unit()) == x
    assert degree(x) == 2 and degree(z) == 2
    assert degree(vir.zero()) is None


def test_bracket_r_base(vir):
    c = vir.field.param("c")
    assert vir.bracket_r(vir.rgen("L"), vir.rgen("L")) == [
        vir.gen("L", 1), vir.gen("L").scale(2), vir.zero(),
        vir.unit().scale(c / 12)]


def test_bracket_r_left_sesquilinearity(vir):
    # [TL_lambda L] = -lambda [L_lambda L]
    c = vir.field.param("c")
    assert vir.bracket_r(vir.rgen("L", 1), vir.rgen("L")) == [
        vir.zero(), -vir.gen("L", 1), vir.gen("L").scale(-2), vir.zero(),
        vir.unit().scale(-c / 12)]


def test_bracket_r_right_sesquilinearity(vir):
    # [L_lambda TL] = (lambda + T)[L_lambda L]
    c = vir.field.param("c")
    assert vir.bracket_r(vir.rgen("L"), vir.rgen("L", 1)) == [
        vir.gen("L", 2), vir.gen("L", 1).scale(3), vir.gen("L").scale(2),
        vir.zero(), vir.unit().scale(c / 12)]


def test_bracket_r_both_slots(vir):
    c = vir.field.param("c")
    assert vir.bracket_r(vir.rgen("L", 1), vir.rgen("L", 1)) == [
        vir.zero(), -vir.gen("L", 2), vir.gen("L", 1).scale(-3),
        vir.gen("L").scale(-2), vir.zero(), vir.unit().scale(-c / 12)]


def test_derived_orientation_w3():
    w3 = make_w3()
    # [W_lambda L] = (2T + 3 lambda) W from skewsymmetry of [L_lambda W]
    assert w3.bracket_r(w3.rgen("W"), w3.rgen("L")) == [
        w3.gen("W", 1).scale(2), w3.gen("W").scale(3)]


def test_derived_orientation_sl2():
    sl2 = make_affine_sl2()
    k = sl2.field.param("k")
    assert sl2.bracket_r(sl2.rgen("f"), sl2.rgen("e")) == [
        -sl2.gen("h"), sl2.unit().scale(k)]
    # [e_lambda h] = -[h_{-lambda-T} e] = -2e, constant in lambda
    assert sl2.bracket_r(sl2.rgen("e"), sl2.rgen("h")) == [
        sl2.gen("e").scale(-2)]


def test_missing_pair_is_zero():
    sl2 = make_affine_sl2()
    assert sl2.bracket_r(sl2.rgen("e"), sl2.rgen("e")) == []
    assert sl2.bracket_r(sl2.rgen("e", 2), sl2.rgen("e", 1)) == []


def test_validate_clean_presentations():
    for make in (make_virasoro, make_free_fermion, make_affine_sl2, make_w3):
        assert make().validate() == []


def test_validate_grading_violation():
    p = Presentation([("L", 0, 2, 2)], params=("c",))
    p.set_bracket("L", "L", [p.poly({p.mono("L", "L"): 1})])
    out = p.validate()
    assert any("degree" in v for v in out)


def test_validate_parity_violation():
    p = Presentation([("phi", 1, 1, Fraction(1, 2))])
    p.set_bracket("phi", "phi", [p.gen("phi")])
    out = p.validate()
    assert any("parity" in v for v in out)


def test_validate_weight_violation():
    p = Presentation([("L", 0, 2, 2)], params=("c",))
    p.set_bracket("L", "L", [p.gen("L")])
    out = p.validate()
    assert any("weight" in v for v in out)


def test_validate_weightless_skips_weight_rule():
    p = Presentation([("L", 0, 2, None)], params=("c",))
    p.set_bracket("L", "L", [p.gen("L")])
    assert p.validate() == []


def test_validate_ansatz_linearity():
    p = Presentation([("L", 0, 2, 2)], unknowns=("u",))
    u = p.field.param("u")
    p.set_bracket("L", "L", [p.gen("L", 1).scale(u * u)])
    assert any("affine" in v for v in p.validate())
    q = Presentation([("M", 0, 2, 2)], unknowns=("v",))
    v = q.field.param("v")
    q.set_bracket("M", "M", [q.gen("M", 1).scale(1 / (1 + v))])
    assert any("denominator" in v2 for v2 in q.validate())


def test_set_bracket_after_engine_is_an_error():
    p = make_virasoro()
    p.set_bracket("L", "L", [p.gen("L", 1)])
    Engine(p)
    with pytest.raises(AlgebraError, match="Engine has been built"):
        p.set_bracket("L", "L", [p.gen("L", 1), p.gen("L").scale(2)])
    assert p.pair_coeffs(0, 0) == [p.gen("L", 1)]


def test_set_bracket_takes_a_trimmed_list():
    p = Presentation([("L", 0, 2, 2)], params=("c",))
    p.set_bracket("L", "L", [p.gen("L", 1), p.gen("L").scale(2), p.zero(),
                             p.zero()])
    assert p.pair_coeffs(0, 0) == [p.gen("L", 1), p.gen("L").scale(2)]
    p.set_bracket("L", "L", [p.zero()])
    assert p.pair_coeffs(0, 0) == []
    assert p.given_pairs() == [(0, 0)]


def test_set_bracket_rejects_bad_names_and_coefficients():
    p = Presentation([("L", 0, 2, 2)], params=("c",))
    q = make_virasoro()
    with pytest.raises(AlgebraError, match="over this presentation"):
        p.set_bracket("L", "L", [q.gen("L", 1)])
    with pytest.raises(AlgebraError, match="list of TPolys"):
        p.set_bracket("L", "L", [p.gen("L", 1), 2])
    # the sparse {lambda-power: TPoly} form is refused, not installed
    with pytest.raises(AlgebraError, match="list of TPolys"):
        p.set_bracket("L", "L", {1: p.gen("L").scale(2)})
    with pytest.raises(AlgebraError, match="unknown generator 'M'"):
        p.set_bracket("L", "M", [])
    assert p.given_pairs() == []
    assert p.pair_coeffs(0, 0) == []


def test_duplicate_and_shadowed_names():
    with pytest.raises(AlgebraError):
        Presentation([("L", 0, 2, 2), ("L", 0, 3, 3)])
    with pytest.raises(AlgebraError):
        Presentation([("c", 0, 2, 2)], params=("c",))
    with pytest.raises(AlgebraError):
        Presentation([("L", 0, 0, 2)])


def test_names_must_be_names_and_not_reserved():
    for gens, params, msg in (([("T", 0, 1, 1)], (), "'T' is reserved"),
                              ([("a", 0, 1, 1)], ("lambda",),
                               "'lambda' is reserved"),
                              ([("a b", 0, 1, 1)], (), "'a b' is not a name"),
                              ([("1", 0, 1, 1)], (), "'1' is not a name"),
                              ([("a", 0, 1, 1)], ("c\u0301",),
                               "'c\u0301' is not a name")):
        with pytest.raises(AlgebraError) as exc:
            Presentation(gens, params=params)
        assert str(exc.value) == msg
    p = Presentation([("\u039b", 0, 2, 2)], params=("\u00e9",),
                     unknowns=("x\u00b2",))
    assert p.field.params == ("\u00e9", "x\u00b2")


def test_params_and_unknowns_refusals():
    with pytest.raises(AlgebraError) as exc:
        Presentation([("L", 0, 2, 2)], params=("c", "u"), unknowns=("u",))
    assert str(exc.value) == "params and unknowns overlap: ['u']"
    with pytest.raises(ScalarError) as exc:
        Presentation([("L", 0, 2, 2)], params=("c", "c"))
    assert str(exc.value) == "duplicate parameter names in ('c', 'c')"


def test_rendering(vir):
    c = vir.field.param("c")
    assert render_tmono(vir, vir.mono(("L", 1), "L")) == ":T L L:"
    assert render_tmono(vir, vir.mono(("L", 3),)) == ":T^3 L:"
    assert render_tmono(vir, ()) == "1"
    x = vir.poly({vir.mono(("L", 1), "L"): 1, vir.mono("L", ("L", 1)): -1,
                  vir.mono(("L", 3),): Fraction(1, 6)})
    assert render_tpoly(x) == "1/6*:T^3 L: - :L T L: + :T L L:"
    assert render_tpoly(vir.unit().scale(c / 12)) == "c/12*1"
    assert render_tpoly(vir.zero()) == "0"
