"""The lambda-rules on dense coefficient lists (lambda -> -lambda - T, the
integral over [-T, 0]) and the LPoly shape that results are handed back in."""

import random
from fractions import Fraction

import pytest

from nlca.algebra import skew_coeffs
from nlca.calculus import Engine, _int_minus_T
from nlca.formal import LPoly, render_lpoly

from builders import make_virasoro


@pytest.fixture(scope="module")
def vir():
    return make_virasoro()


def LL(vir):
    return vir.bracket_r(vir.rgen("L"), vir.rgen("L"))


def random_coeffs(pres, rng):
    monos = [(), (pres.rgen("L"),), (pres.rgen("L", 1),),
             (pres.rgen("L"), pres.rgen("L"))]
    out = [pres.zero() for _ in range(4)]
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(0, 3)
        out[k] = out[k] + pres.poly(
            {rng.choice(monos): Fraction(rng.randint(-5, 5), rng.randint(1, 3))})
    while out and out[-1].is_zero:
        out.pop()
    return out


def test_integrate_minus_T_to_zero(vir):
    # the Lie-bracket integral of [L_lambda L] vanishes
    assert _int_minus_T(vir, LL(vir)).is_zero
    assert Engine(vir).lie(vir.gen("L"), vir.gen("L")).is_zero


def test_integrate_minus_T_single_term(vir):
    # lambda L over [-T, 0] is -T^2 L / 2
    got = _int_minus_T(vir, [vir.zero(), vir.gen("L")])
    assert got == vir.gen("L", 2).scale(Fraction(-1, 2))


def test_integral_linearity(vir):
    rng = random.Random(31)
    c = vir.field.param("c")
    for _ in range(15):
        a, b = random_coeffs(vir, rng), random_coeffs(vir, rng)
        s = c * rng.randint(-3, 3) + rng.randint(-2, 2)
        n = max(len(a), len(b))
        a += [vir.zero()] * (n - len(a))
        b += [vir.zero()] * (n - len(b))
        lhs = _int_minus_T(vir, [x.scale(s) + y for x, y in zip(a, b)])
        rhs = _int_minus_T(vir, a).scale(s) + _int_minus_T(vir, b)
        assert lhs == rhs


def test_subst_neg_lambda_minus_T_virasoro_skew(vir):
    # [L_lambda L] is skew: substituting -lambda-T negates it
    assert skew_coeffs(LL(vir)) == [-X for X in LL(vir)]
    assert skew_coeffs(LL(vir), -1) == LL(vir)


def test_subst_neg_lambda_minus_T_involution(vir):
    rng = random.Random(13)
    for _ in range(20):
        p = random_coeffs(vir, rng)
        assert skew_coeffs(skew_coeffs(p)) == p


def test_shift_and_coeff_access(vir):
    p = LPoly.from_coeff_list(vir, "lambda", [vir.gen("L")])
    q = p.shift("lambda", 2)
    assert q.coeff((2,)) == vir.gen("L")
    assert q.coeff((0,)).is_zero
    assert p.coeff((0,)) == vir.gen("L")


def test_render_lpoly(vir):
    s = render_lpoly(LPoly.from_coeff_list(vir, "lambda", LL(vir)))
    assert s == ":T L: + 2*lambda*:L: + c/12*lambda^3*1"
    p = LPoly(vir, ("lambda", "mu"), {(1, 1): vir.gen("L").scale(-1)})
    assert render_lpoly(p) == "-lambda*mu*:L:"
    assert render_lpoly(LPoly(vir, ("lambda",))) == "0"


def test_coeff_list_round_trip(vir):
    lst = LL(vir)
    assert len(lst) == 4
    lp = LPoly.from_coeff_list(vir, "lambda", lst)
    assert sorted(lp.terms) == [(0,), (1,), (3,)]
    assert [lp.coeff((k,)) for k in range(len(lst))] == lst
