"""Differential tests: each exact shortcut against the plain path.

Every Scalar, a constant included, is kept as int dicts, and its sympy
view, .raw, must agree with them.  Scalar products with ±1 skip all
arithmetic; every sum, difference, negation and power, and every product
and quotient with a non-constant operand, is reduced by trial division
over its denominators' factors and builds no sympy element; a quotient
by a constant Scalar is a product with its inverse on Python ints, and
only products of two constants keep sympy's cancel; a product with an
int or Fraction (the closed forms' rational weights, which the engine no
longer converts) runs on Python ints; each field's product and quotient
of exponent tuples is generated code, as in sympy; a denominator of
total degree 1 is its own factor, without sympy's factor_list; generator
metadata is kept in integer units (ranks, degree and weight units,
parity bits).  Each must give the very value, rendering and hash
of the plain computation (down to whole jacobiators and normal forms),
and every check built on the integer units must still fire, with the
same message.
"""

import ast
import operator
import random
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.fields import FracField
from sympy.polys.rings import PolyElement, PolyRing

import nlca
from nlca.algebra import (AlgebraError, Presentation, RGen, _add_scaled,
                          apply_T, render_tpoly)
from nlca.calculus import CalculusError, Engine
from nlca.formal import LPoly, render_lpoly
from nlca.frontend import load_bundled, parse_path, parse_scalar, parse_source
from nlca.pbw import PBWError, Reducer, inversions
from nlca.scalars import (Scalar, ScalarError, _factor, _fmt_q,
                          affine_split, scalar_field)

from builders import bundled_names
from randgen import random_coeff, random_tensor

FIELDS = ((), ("c",), ("a", "b"))


def polynomial(fld, rng):
    """A seeded polynomial in the parameters of fld, with coefficients
    from randgen (so its integer content and denominator vary)."""
    out = fld.convert(random_coeff(rng))
    for p in fld.params:
        out = out + fld.param(p) * random_coeff(rng)
        if rng.random() < 0.5:
            out = out * (fld.param(p) + random_coeff(rng))
    return out


def rational_function(fld, rng):
    """A seeded element of fld: a ratio of small polynomials in its
    parameters with coefficients from randgen, or a rational constant."""
    den = polynomial(fld, rng)
    while den.is_zero:
        den = polynomial(fld, rng)
    return polynomial(fld, rng) / den


def assert_same(x, y):
    assert x == y
    assert str(x) == str(y)
    assert hash(x) == hash(y)


def check_unit_products(fld, x):
    # a one and a minus one that are not the cached objects, so their
    # products take the plain path: trial division, or sympy's cancel for
    # two constants
    one = Scalar(fld, fld._field.one)
    minus_one = Scalar(fld, -fld._field.one)
    assert one is not fld.one and minus_one is not fld.minus_one
    plain = Scalar(fld, x.raw * one.raw)
    plain_neg = Scalar(fld, x.raw * minus_one.raw)
    for fast in (x * 1, 1 * x, x * fld.one, fld.one * x, x * Fraction(1),
                 Fraction(1) * x, x * Fraction(3, 3)):
        assert_same(fast, plain)
    for fast in (x * -1, -1 * x, x * fld.minus_one, fld.minus_one * x, -x,
                 x * Fraction(-1), x * Fraction(-2, 2)):
        assert_same(fast, plain_neg)
    assert_same(x * one, plain)
    assert_same(x * minus_one, plain_neg)
    assert_same(-(-x), x)


def test_unit_products_match_plain_path_seeded():
    rng = random.Random(606)
    for params in FIELDS:
        fld = scalar_field(params)
        for x in (fld.zero, fld.one, fld.minus_one, fld.convert(2)):
            check_unit_products(fld, x)
        for _ in range(25):
            check_unit_products(fld, rational_function(fld, rng))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2 ** 32))
def test_unit_products_match_plain_path_hypothesis(params, seed):
    fld = scalar_field(params)
    check_unit_products(fld, rational_function(fld, random.Random(seed)))


def test_unit_constants_are_cached():
    for params in FIELDS:
        fld = scalar_field(params)
        for one in (1, Fraction(1), Fraction(2, 2), fld.one):
            assert fld.convert(one) is fld.one
        for minus_one in (-1, Fraction(-1), Fraction(-5, 5), fld.minus_one):
            assert fld.convert(minus_one) is fld.minus_one
        assert -fld.one is fld.minus_one
        assert -fld.minus_one is fld.one
        assert str(fld.minus_one) == "-1"
        assert fld.convert(0) is fld.zero
        # a constant sum, product or quotient equal to 0 or ±1 is the
        # cached object, so later products with it keep the ±1 shortcut
        third, three = fld.convert(Fraction(1, 3)), fld.convert(3)
        for got, want in ((three / three, fld.one),
                          (fld.convert(-3) / three, fld.minus_one),
                          (fld.convert(Fraction(2, 3))
                           * fld.convert(Fraction(3, 2)), fld.one),
                          (third + Fraction(2, 3), fld.one),
                          (Fraction(2, 3) + third, fld.one),
                          (-third - Fraction(2, 3), fld.minus_one),
                          (Fraction(-4, 3) + third, fld.minus_one),
                          (third - Fraction(1, 3), fld.zero),
                          (third + Fraction(-1, 3), fld.zero)):
            assert got is want
        # a constant's view is the element cancel gives
        for v in (0, 1, -1, 64, -64, 65, -65, 2 ** 70, Fraction(3, 4),
                  Fraction(-5, 6)):
            v = Fraction(v)
            got = fld.convert(v).raw
            want = fld._field.ground_new(QQ(v.numerator, v.denominator))
            assert dict(got.numer) == dict(want.numer)
            assert dict(got.denom) == dict(want.denom)
            assert got == want


# -- sums and products with a constant, or of two polynomials ---------------

def draw(fld, rng, kind):
    """A seeded element of fld of the given kind: a constant (zero one
    time in eight), a polynomial, or a rational function."""
    if kind == "constant":
        return fld.zero if rng.random() < 0.125 else fld.convert(
            random_coeff(rng))
    if kind == "polynomial":
        return polynomial(fld, rng)
    return rational_function(fld, rng)


KINDS = ("constant", "polynomial", "rational function")


def check_sums_and_products(fld, x, y):
    """x + y, x - y, x * y in both orders, and with y as a Fraction where
    it is a constant, against sympy's add, subtract and multiply (each of
    which cancels)."""
    for u, v in ((x, y), (y, x)):
        assert_same(u + v, Scalar(fld, u.raw + v.raw))
        assert_same(u - v, Scalar(fld, u.raw - v.raw))
        assert_same(u * v, Scalar(fld, u.raw * v.raw))
    if y.raw.numer.is_ground and y.raw.denom.is_ground:
        q = Fraction(str(y))
        for fast, plain in ((x + q, x.raw + y.raw), (q + x, y.raw + x.raw),
                            (x - q, x.raw - y.raw), (q - x, y.raw - x.raw),
                            (x * q, x.raw * y.raw), (q * x, y.raw * x.raw)):
            assert_same(fast, Scalar(fld, plain))


def test_sums_and_products_match_plain_path_seeded():
    rng = random.Random(1313)
    for params in FIELDS:
        fld = scalar_field(params)
        for kx, ky in product(KINDS, repeat=2):
            for _ in range(12):
                check_sums_and_products(fld, draw(fld, rng, kx),
                                        draw(fld, rng, ky))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(KINDS),
       st.sampled_from(KINDS), st.integers(0, 2 ** 32))
def test_sums_and_products_match_plain_path_hypothesis(params, kx, ky, seed):
    fld = scalar_field(params)
    rng = random.Random(seed)
    check_sums_and_products(fld, draw(fld, rng, kx), draw(fld, rng, ky))


def test_sums_and_products_edge_cases():
    fld = scalar_field(("c",))
    c = fld.param("c")
    f = (c + 1) / (2 * c + 6)  # integer contents 1 and 2
    p = (c + 1) / 6
    pairs = [(c, -c), (c, 1 - c), (p, (5 - c) / 6), (p, p), (p, 3 * c - 1)]
    pairs += [(x, fld.convert(q)) for x, q in ((f, Fraction(4, 3)),
                                               (f, Fraction(5, 6)),
                                               (p, Fraction(4, 3)))]
    # constants: numerators past 2^64, one of 5,000 digits (first, since
    # Fraction(str(...)) cannot read it back), sums equal to 0, ±1 and 65
    big, huge = Fraction(2 ** 70 + 1, 3), Fraction(10 ** 4999 + 1, 3)
    constants = [(big, Fraction(-2 ** 66, 7)), (big, -big), (huge, -big),
                 (huge, Fraction(2, 3)), (Fraction(1, 3), Fraction(2, 3)),
                 (Fraction(-1, 2), Fraction(-1, 2)),
                 (Fraction(131, 2), Fraction(-1, 2)),
                 (Fraction(64), Fraction(1)), (Fraction(66), Fraction(-1))]
    pairs += [(fld.convert(q), fld.convert(r)) for q, r in constants]
    for x, y in pairs:
        check_sums_and_products(fld, x, y)
    for x, y in constants:
        got, want = fld.convert(x) + y, x + y
        assert got == want and hash(got) == hash(want)
        assert str(got) == _fmt_q(want)
    assert str(fld.convert(huge) + Fraction(2, 3)) == (
        "1" + "0" * 4998 + "3/3")
    for got, want in ((c + (-c), "0"), (c + (1 - c), "1"),
                      (p + (5 - c) / 6, "1"), (p - p, "0"),
                      (p + p, "(c + 1)/3"), (p + 3 * c - 1, "(19*c - 5)/6"),
                      (p * (3 * c - 1), "(3*c^2 + 2*c - 1)/6"),
                      (f * Fraction(4, 3), "(2*c + 2)/(3*c + 9)"),
                      (f + Fraction(5, 6), "(4*c + 9)/(3*c + 9)"),
                      (p * Fraction(4, 3), "(2*c + 2)/9"),
                      (p + Fraction(4, 3), "(c + 9)/6")):
        assert str(got) == want
    assert (c + (-c)).raw == fld.zero.raw
    assert (c + (1 - c)).raw == fld.one.raw


def test_no_cancel_with_a_constant_or_two_polynomials(monkeypatch):
    rng = random.Random(1717)
    fld = scalar_field(("c", "k"))
    kinds = {k: [draw(fld, rng, k) for _ in range(20)] for k in KINDS}
    calls = []
    cancel = PolyElement.cancel

    def counting_cancel(self, other):
        calls.append(1)
        return cancel(self, other)

    monkeypatch.setattr(PolyElement, "cancel", counting_cancel)

    def cancels(xs, ys):
        del calls[:]
        for x, y in zip(xs, ys):
            x + y, x - y, x * y, y + x, y - x, y * x
        return len(calls)

    constants = [x for x in kinds["constant"] if x]
    # sums and differences of two constants, and constants built from
    # uncached ints and from Fractions
    del calls[:]
    for x, y in zip(constants, constants[::-1]):
        x + y, x - y, y + x, y - x
    for v in (65, -65, 2 ** 70, Fraction(3, 4), Fraction(-5, 6),
              Fraction(2 ** 70 + 1, 3)):
        fld.convert(v)
    assert len(calls) == 0
    # a Scalar of any kind times an int or Fraction runs on ints
    for xs in kinds.values():
        for x in xs:
            for q in RATIONALS:
                x * q, q * x
    assert len(calls) == 0
    # (a) a nonzero constant with a non-constant operand
    assert cancels(constants, kinds["polynomial"]) == 0
    assert cancels(constants, kinds["rational function"]) == 0
    # (b) two polynomials
    assert cancels(kinds["polynomial"], kinds["polynomial"][::-1]) == 0
    # (c) rational function with rational function, by trial division
    assert cancels(kinds["rational function"],
                   kinds["rational function"][::-1]) == 0
    # quotients with a non-constant operand
    del calls[:]
    for x, y in zip(kinds["rational function"], kinds["polynomial"]):
        x / y, y / x
        x / constants[0], constants[0] / x
    assert len(calls) == 0
    # quotients and negative powers of two constants run on ints
    del calls[:]
    for x, y in zip(constants, constants[::-1]):
        x / y, y / x, x ** -1, y ** -3
    assert len(calls) == 0
    # products of two constants keep sympy's path until the benchmark's
    # peak_rss_mb stops growing with throughput (ROADMAP item 1)
    del calls[:]
    for x, y in zip(constants, constants[::-1]):
        x * y
    assert len(calls) > 0


SYMPY_BUILDERS = ((PolyElement, "__mul__"), (PolyElement, "__add__"),
                  (PolyElement, "__sub__"), (PolyRing, "from_dict"),
                  (FracField, "raw_new"))


def test_no_sympy_element_with_a_non_constant_operand(monkeypatch):
    rng = random.Random(1919)
    fld = scalar_field(("c", "k"))
    kinds = {k: [draw(fld, rng, k) for _ in range(20)] for k in KINDS}
    varying = {id(x) for xs in kinds.values() for x in xs
               if not (x.raw.numer.is_ground and x.raw.denom.is_ground)}
    calls = []

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return wrapper

    for cls, name in SYMPY_BUILDERS:
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))

    def builds(xs, ys):
        """sympy elements built by + - * of pairs with a non-constant
        operand, and by negations and powers of the non-constant ones."""
        del calls[:]
        for x, y in zip(xs, ys):
            if id(x) in varying or id(y) in varying:
                x + y, x - y, x * y, y + x, y - x, y * x
            for z in (x, y):
                if id(z) in varying:
                    -z, z ** 0, z ** 1, z ** 2, z ** 3
        return len(calls)

    constants = kinds["constant"]
    assert builds(constants, kinds["polynomial"]) == 0
    assert builds(constants, kinds["rational function"]) == 0
    assert builds(kinds["polynomial"], kinds["polynomial"][::-1]) == 0
    assert builds(kinds["polynomial"], kinds["rational function"]) == 0
    assert builds(kinds["rational function"],
                  kinds["rational function"][::-1]) == 0
    # a constant is int dicts too: building one from an int or Fraction,
    # and sums, differences, negations, powers and products with an int
    # or Fraction of constants build no sympy element
    del calls[:]
    for v in (0, 1, -1, 65, -65, 2 ** 70, Fraction(3, 4), Fraction(-5, 6),
              Fraction(2 ** 70 + 1, 3)):
        fld.convert(v)
    for x, y in zip(constants, constants[::-1]):
        x + y, x - y, y - x, -x, x ** 0, x ** 1, x ** 2, x ** 3
        for q in RATIONALS:
            x * q, q * x
    assert calls == []
    # so do quotients and negative powers of two constants
    nonzero = [x for x in constants if x]
    for x, y in zip(nonzero, nonzero[::-1]):
        x / y, y / x, x ** -1, y ** -3
    assert calls == []
    # products of two constants keep sympy's path until the benchmark's
    # peak_rss_mb stops growing with throughput (ROADMAP item 1)
    for x, y in zip(nonzero, nonzero[::-1]):
        x * y
    assert calls


def test_only_constant_products_do_arithmetic_on_the_view():
    """The one path left on sympy's arithmetic: scalars._product, on the
    .raw views of two constants."""
    found = set()
    for path in sorted(Path(nlca.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.BinOp):
                    operands = (node.left, node.right)
                elif isinstance(node, ast.UnaryOp):
                    operands = (node.operand,)
                elif isinstance(node, ast.AugAssign):
                    operands = (node.target, node.value)
                else:
                    continue
                if any(isinstance(o, ast.Attribute)
                       and o.attr in ("raw", "_raw") for o in operands):
                    found.add((path.stem, getattr(fn, "name", "lambda")))
    assert found == {("scalars", "_product")}


# -- rational functions by trial division -------------------------------------

def factor_pool(fld):
    """The denominators' factors the draws below share: 5x+22, x-10 and
    2x-1 in the first parameter x, and xy+3y-1 where there is a second
    parameter y.  None for Q, where every draw is a constant."""
    if not fld.params:
        return []
    x = fld.param(fld.params[0])
    pool = [5 * x + 22, x - 10, 2 * x - 1]
    if len(fld.params) > 1:
        y = fld.param(fld.params[1])
        pool.append(x * y + 3 * y - 1)
    return pool


def shared_factors(fld, rng):
    """A seeded element of fld built with sympy's plain operators: a
    polynomial, sometimes times pool factors, over a constant times pool
    factors with exponents up to 3."""
    num, den = polynomial(fld, rng).raw, fld.convert(random_coeff(rng)).raw
    for f in factor_pool(fld):
        den = den * f.raw ** rng.randrange(4)
        if rng.random() < 0.3:
            num = num * f.raw
    return Scalar(fld, num / den)


def partners(fld, rng, x):
    """Second operands for x: another draw, x itself, a constant, and ones
    whose sum or product with x collapses to a polynomial, a constant or
    zero."""
    p = polynomial(fld, rng).raw
    k = fld.convert(random_coeff(rng)).raw
    out = [shared_factors(fld, rng), x, Scalar(fld, k), Scalar(fld, p - x.raw),
           Scalar(fld, k - x.raw), Scalar(fld, -x.raw)]
    if x:
        out.append(Scalar(fld, p / x.raw))
    return out


def check_four_operations(fld, x, y):
    """+ - * / in both orders, against sympy's operators on .raw."""
    for u, v in ((x, y), (y, x)):
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            if op is operator.truediv and not v:
                continue
            assert_same(op(u, v), Scalar(fld, op(u.raw, v.raw)))


def check_shared_factors(fld, rng):
    x = shared_factors(fld, rng)
    for y in partners(fld, rng, x):
        check_four_operations(fld, x, y)
    assert_same(x + Scalar(fld, -x.raw), fld.zero)
    if x:
        assert_same(x * Scalar(fld, 1 / x.raw), fld.one)
        for n in (1, 2, 3):
            assert_same(x ** -n, 1 / x ** n)
            assert_same(x ** -n, Scalar(fld, 1 / x.raw ** n))


def test_shared_factors_match_plain_path_seeded():
    rng = random.Random(1717)
    for params in FIELDS:
        fld = scalar_field(params)
        for _ in range(12):
            check_shared_factors(fld, rng)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2 ** 32))
def test_shared_factors_match_plain_path_hypothesis(params, seed):
    check_shared_factors(scalar_field(params), random.Random(seed))


def test_negative_powers_fix_the_sign():
    fld = scalar_field(("c",))
    c = fld.param("c")
    for x, want in ((-c, "-1/(c)"), ((1 - c) / (c + 2), "(-c - 2)/(c - 1)"),
                    (fld.convert(-3), "-1/3")):
        assert str(x ** -1) == want
        assert_same(x ** -1, 1 / x)
        assert_same(x ** -2, 1 / x ** 2)
    assert_same((-c) ** -1, -1 / c)


def test_trial_division_results_hash_as_their_values():
    # sympy's PolyElement.div can return a quotient that keeps a hash
    # cached before it was filled in: equal to the value, hashing apart
    fld = scalar_field(("c",))
    c = fld.param("c")
    d = (5 * c + 22) ** 2
    got = (c + 1) / d + (4 * c + 21) / d
    want = 1 / (5 * c + 22)
    assert_same(got, want)
    assert_same(got, Scalar(fld, 1 / (5 * c + 22).raw))
    assert {want: "entry"}[got] == "entry"
    assert {got: "entry"}.get(Scalar(fld, want.raw)) == "entry"
    # so can its square(), which ** uses
    for x in (c + 2, (c - 10) / (2 * c - 1), 3 / (c * c + 1)):
        for n in (2, 3, 4):
            product = x
            for _ in range(n - 1):
                product = product * x
            assert_same(x ** n, product)
    assert_same(fld.zero ** 0, fld.one)


def plain_affine_split(s, unknowns):
    """affine_split's coefficients as sympy's FracField.new builds them,
    each with a cancel."""
    params = s.field.params
    keep = [i for i, p in enumerate(params) if p not in unknowns]
    slots = [params.index(u) for u in unknowns]
    target = scalar_field(params[i] for i in keep)
    ring = target._field.ring

    def drop(terms):
        return ring.from_dict({tuple(e[i] for i in keep): c for e, c in terms})

    den = drop(s.raw.denom.terms())
    out = []
    for slot in [None] + slots:
        terms = [(e, c) for e, c in s.raw.numer.terms()
                 if (e[slot] if slot is not None
                     else not any(e[i] for i in slots))]
        out.append(Scalar(target, target._field.new(drop(terms), den)))
    return out


def test_affine_split_matches_plain_path():
    rng = random.Random(2323)
    small = scalar_field(("c", "k"))
    big = scalar_field(("c", "u", "k", "v"))
    u, v = big.param("u"), big.param("v")
    for _ in range(20):
        c0, cu, cv = (parse_scalar(big, str(shared_factors(small, rng)))
                      for _ in range(3))
        # sympy's plain operators, so the split sees a cancelled input
        s = Scalar(big, c0.raw + cu.raw * u.raw + cv.raw * v.raw)
        got = affine_split(s, ("u", "v"))
        for x, y in zip([got[0]] + got[1], plain_affine_split(s, ("u", "v"))):
            assert_same(x, y)


def plain_method(op):
    def method(x, other):
        fld = x.field
        y = other.raw if isinstance(other, Scalar) else fld.convert(other).raw
        return Scalar(fld, op(x.raw, y))
    return method


PLAIN = {
    "__add__": operator.add, "__radd__": lambda a, b: b + a,
    "__sub__": operator.sub, "__rsub__": lambda a, b: b - a,
    "__mul__": operator.mul, "__rmul__": lambda a, b: b * a,
    "__truediv__": operator.truediv, "__rtruediv__": lambda a, b: b / a,
}


def renderings(pres, seed, lift):
    """Rendered jacobiators, with their normal forms, on seeded tensors,
    from a fresh Engine; then a lie and a pbracket of operands, and the
    normal form of words, under T^lift, so that the closed forms (Beta
    values, 1/(m+1)) meet T-powers past randgen's caps."""
    rng = random.Random(seed)
    engine = Engine(pres)
    reducer = Reducer(engine)
    out = []
    for _ in range(3):
        x, y, z = (random_tensor(pres, rng, terms=1, allow_empty=False)
                   for _ in range(3))
        j = engine.jacobiator(x, y, z)
        out += [render_lpoly(j), render_lpoly(reducer.normal_order_lpoly(j))]
        tx, ty = apply_T(x, lift), apply_T(y, lift)
        out += [render_tpoly(engine.lie(tx, y)),
                render_lpoly(engine.pbracket(tx, ty))]
        out.append(render_tpoly(reducer.normal_order(apply_T(
            random_tensor(pres, rng, terms=3, allow_empty=False), lift))))
    return out


# (algebra, T-power applied to the lie, pbracket and normal form operands)
PLAIN_ENGINE_RUNS = (("w3", 0), ("virasoro", 2), ("affine_sl2", 2))


def test_engine_matches_plain_scalar_arithmetic(presentations, monkeypatch):
    fast = [renderings(presentations[name], 41, lift)
            for name, lift in PLAIN_ENGINE_RUNS]
    for name, op in PLAIN.items():
        monkeypatch.setattr(Scalar, name, plain_method(op))
    monkeypatch.setattr(Scalar, "__neg__", lambda x: Scalar(x.field, -x.raw))
    assert [renderings(presentations[name], 41, lift)
            for name, lift in PLAIN_ENGINE_RUNS] == fast
    assert all(any("/" in text for text in texts) for texts in fast)


# -- denominators of total degree 1, without factor_list ----------------------

def plain_factor(fld, den):
    """den's factors by sympy's factor_list, each primitive with a positive
    graded-lex leading coefficient, as ((int dict, exponent), ...)."""
    out = []
    for f, e in fld._field.ring.from_dict(den).factor_list()[1]:
        ints = {m: int(c.numerator) for m, c in f.clear_denoms()[1].items()}
        g = gcd(*ints.values())
        if ints[max(ints, key=lambda m: (sum(m), m))] < 0:
            g = -g
        out.append(({m: c // g for m, c in ints.items()}, e))
    return out


def linear_polynomial(fld, rng):
    """A seeded int dict of total degree 1 in fld's parameters: an integer
    content up to 6 times a primitive part of either sign, with a constant
    term that is sometimes zero."""
    n = len(fld.params)
    while True:
        terms = {}
        for i in range(n):
            c = rng.choice([0, 0] + list(range(-9, 10)))
            if c:
                terms[tuple(int(j == i) for j in range(n))] = c
        if terms:
            break
    if rng.random() < 0.7:
        terms[(0,) * n] = rng.randrange(-30, 31) or 1
    k = rng.randrange(1, 7) * rng.choice((1, -1))
    return {m: c * k for m, c in terms.items()}


def test_linear_denominators_match_factor_list():
    rng = random.Random(3131)
    fixed = {("c",): [{(1,): 5, (0,): 22}, {(1,): 15, (0,): 66},
                      {(1,): -5, (0,): -22}, {(1,): 3}, {(1,): -1}],
             ("a", "b"): [{(1, 0): 2, (0, 1): -3, (0, 0): 6},
                          {(0, 1): -4, (0, 0): 8}, {(1, 0): -6, (0, 1): 9}],
             ("a", "b", "k"): [{(0, 0, 1): 7, (1, 0, 0): -7},
                               {(0, 1, 0): 2, (0, 0, 1): 4, (0, 0, 0): -6}]}
    for params, cases in fixed.items():
        fld = scalar_field(params)
        for den in cases + [linear_polynomial(fld, rng) for _ in range(40)]:
            got = [(dict(f), e) for f, e in _factor(fld, den)]
            assert got == plain_factor(fld, den), (params, den)


def test_bundled_and_bench_tables_parse_without_factor_list(monkeypatch):
    calls = []
    factor_list = PolyElement.factor_list

    def counting(self, *args, **kwargs):
        calls.append(self)
        return factor_list(self, *args, **kwargs)
    monkeypatch.setattr(PolyElement, "factor_list", counting)
    for name in bundled_names():
        load_bundled(name)
    inputs = sorted((Path(__file__).resolve().parent.parent / "bench"
                     / "inputs").glob("*.nlca"))
    assert inputs
    for path in inputs:
        parse_path(path)
    assert calls == []
    # a quadratic denominator still goes through factor_list
    fld = scalar_field(("c",))
    assert str(parse_scalar(fld, "1/(c^2 + 1)")) == "1/(c^2 + 1)"
    assert len(calls) == 1


# -- the sympy boundary -------------------------------------------------------

# w3_ansatz's field: the central charge and five unknowns
ANSATZ_FIELD = ("c", "alpha", "beta", "gamma", "delta", "epsilon")


def plain_poly_str(poly, names):
    """A sympy polynomial with integer coefficients rendered in the order
    of its terms(), sympy's graded-lex order, highest first."""
    out = []
    for exps, coeff in poly.terms():
        n = abs(coeff.numerator)
        mono = "*".join(name if e == 1 else "%s^%d" % (name, e)
                        for name, e in zip(names, exps) if e)
        body = mono if mono and n == 1 else (
            "%d*%s" % (n, mono) if mono else str(n))
        if not out:
            out.append(body if coeff > 0 else "-" + body)
        else:
            out.append((" - " if coeff < 0 else " + ") + body)
    return "".join(out) or "0"


def plain_str(x):
    """x rendered from its sympy element."""
    num, den, names = x.raw.numer, x.raw.denom, x.field.params
    text = plain_poly_str(num, names)
    if den == 1:
        return text
    if len(num) > 1:
        text = "(%s)" % text
    if den.is_ground:
        return "%s/%d" % (text, den.LC.numerator)
    return "%s/(%s)" % (text, plain_poly_str(den, names))


def plain_evaluate(x, point):
    """x at point by sympy's evaluation of its numerator and denominator;
    None where the denominator vanishes."""
    ring = x.field._field.ring
    pairs = [(g, QQ(v.numerator, v.denominator))
             for g, v in zip(ring.gens, point)]
    num, den = ((p.evaluate(pairs) if pairs else p.coeff(1))
                for p in (x.raw.numer, x.raw.denom))
    if not den:
        return None
    q = num / den
    return Fraction(int(q.numerator), int(q.denominator))


def check_sympy_boundary(fld, x, rng):
    back = Scalar(fld, x.raw)
    assert_same(back, x)
    assert str(x) == plain_str(x)
    assert x.complexity() == len(x.raw.numer) + len(x.raw.denom)
    for _ in range(3):
        point = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                 for _ in fld.params]
        want = plain_evaluate(x, point)
        if want is None:
            with pytest.raises(ScalarError):
                x.evaluate(dict(zip(fld.params, point)))
        else:
            assert x.evaluate(dict(zip(fld.params, point))) == want


def test_sympy_boundary_matches_the_int_dicts():
    rng = random.Random(2929)
    for params in FIELDS + (ANSATZ_FIELD,):
        fld = scalar_field(params)
        for kind in KINDS:
            for _ in range(12):
                check_sympy_boundary(fld, draw(fld, rng, kind), rng)
        # constants built each way: cached and uncached ints, a sum,
        # products whose view came from sympy's cancel, and quotients on
        # ints
        third, three = fld.convert(Fraction(1, 3)), fld.convert(3)
        for x in (fld.zero, fld.minus_one, fld.convert(64), fld.convert(-65),
                  fld.convert(2 ** 70), third + Fraction(1, 6), third - 1,
                  fld.convert(-4) * third, third / fld.convert(-4),
                  three / three):
            check_sympy_boundary(fld, x, rng)
    # a vanishing denominator
    fld = scalar_field(("c",))
    c = fld.param("c")
    with pytest.raises(ScalarError):
        (1 / (c - 2)).evaluate({"c": 2})
    # several parameters render in graded-lex order, highest first
    fld = scalar_field(ANSATZ_FIELD)
    c, alpha, eps = (fld.param(p) for p in ("c", "alpha", "epsilon"))
    x = (eps ** 2 + alpha * c - 3 * c + eps) / (alpha + eps * eps)
    assert str(x) == ("(c*alpha + epsilon^2 - 3*c + epsilon)/"
                      "(epsilon^2 + alpha)")
    assert str(x) == plain_str(x)


# -- products with an int or Fraction, on Python ints -------------------------

# 0, ±1, ±2^70, negative Fractions, and numerators past 2^64
RATIONALS = (0, 1, -1, 2, -6, 2 ** 70, -2 ** 70, Fraction(1), Fraction(-4, 4),
             Fraction(-1, 2), Fraction(-7, 6), Fraction(9, 10),
             Fraction(2 ** 64 + 1, 3), Fraction(-(2 ** 65 + 3), 2 ** 70 + 1))


def check_rational_multiplier(fld, x, q, ys):
    """x * q, q * x and x * Fraction(q) against x * fld.convert(q), the
    Scalar-by-Scalar path, and against sympy's multiply; then a sum and a
    product with every y, and a quotient by a constant y, which read the
    result's factors."""
    conv = fld.convert(q)
    plain = x * conv
    assert_same(plain, Scalar(fld, x.raw * conv.raw))
    fast = x * q
    for same in (fast, q * x, x * Fraction(q)):
        assert_same(same, plain)
    for y in ys:
        assert_same(fast + y, plain + y)
        assert_same(fast * y, plain * y)
        if y and y.raw.numer.is_ground:
            assert_same(fast / y, plain / y)


def test_rational_multipliers_match_plain_path():
    rng = random.Random(53)
    fields = {load_bundled(name).field for name in bundled_names()}
    assert len(fields) > 2
    for fld in fields:
        xs = [draw(fld, rng, kind) for kind in KINDS for _ in range(2)]
        xs += [fld.zero, fld.one, fld.minus_one, shared_factors(fld, rng)]
        for x in xs:
            ys = [shared_factors(fld, rng), x, draw(fld, rng, "constant")]
            for q in RATIONALS:
                check_rational_multiplier(fld, x, q, ys)
    # a product equal to ±1 is the cached object, so later products with
    # it keep the ±1 shortcut
    fld = scalar_field(("c",))
    half = fld.convert(Fraction(1, 2))
    assert half * 2 is fld.one and Fraction(-2) * half is fld.minus_one


def test_non_rational_multipliers_still_raise(virasoro):
    x = virasoro.gen("L")
    lx = LPoly.from_coeff_list(virasoro, "lambda", [x])
    other = scalar_field(("zz",)).param("zz")
    for s in (0.5, "2", other):
        with pytest.raises(ScalarError):
            x.scale(s)
        with pytest.raises(ScalarError):
            lx.scale(s)
        with pytest.raises(ScalarError):
            _add_scaled({}, x, s)


# -- exponent tuples and constant quotients, without sympy --------------------

def test_monomial_ops_match_sympy_seeded():
    """Each field's generated product and exact quotient of exponent
    tuples against sympy's, for 0 to 6 parameters, with quotients on each
    side of divisibility."""
    rng = random.Random(3131)
    for k in range(7):
        fld = scalar_field(tuple("p%d" % i for i in range(k)))
        ring = fld._field.ring
        assert fld._zm == ring.zero_monom
        for _ in range(150):
            a, b = (tuple(rng.randrange(4) for _ in range(k))
                    for _ in range(2))
            ab = fld._mul(a, b)
            assert ab == ring.monomial_mul(a, b)
            assert fld._div(a, b) == ring.monomial_div(a, b)
            assert fld._div(ab, b) == ring.monomial_div(ab, b) == a
            assert fld._div(b, b) == fld._zm
            # ab less one x_i: still divisible by a exactly when b has x_i
            for i in range(k):
                if ab[i]:
                    short = tuple(e - (j == i) for j, e in enumerate(ab))
                    want = ring.monomial_div(short, a)
                    assert fld._div(short, a) == want
                    assert (want is None) == (b[i] == 0)


def test_constant_quotients_match_fractions_seeded():
    """A quotient of two constants, and a constant to a negative power, on
    ints, against Fraction and sympy's division; a zero divisor still
    raises."""
    rng = random.Random(3737)
    values = [Fraction(v) for v in (0, 1, -1, 2, -3, 64, -64, 65, 2 ** 70,
                                    -(2 ** 70) + 1)]
    values += [Fraction(-7, 6), Fraction(2 ** 64 + 1, -3),
               Fraction(-(2 ** 65 + 3), 2 ** 70 + 1)]
    values += [random_coeff(rng) for _ in range(10)]
    values += [Fraction(rng.randrange(-10 ** 20, 10 ** 20),
                        rng.randrange(1, 10 ** 20)) for _ in range(5)]
    for params in FIELDS:
        fld = scalar_field(params)
        for q, r in product(values, repeat=2):
            x, y = fld.convert(q), fld.convert(r)
            if not r:
                for quotient in (lambda: x / y, lambda: q / y,
                                 lambda: y ** -2):
                    with pytest.raises(ScalarError,
                                       match="^division by zero$"):
                        quotient()
                continue
            got, want = x / y, q / r
            assert got == want and hash(got) == hash(want)
            assert str(got) == _fmt_q(want)
            assert_same(got, Scalar(fld, x.raw / y.raw))
            assert_same(q / y, got)
            assert_same(x / r, got)
        for r in values:
            if r:
                for n in (1, 2, 3):
                    got = fld.convert(r) ** -n
                    assert got == r ** -n and str(got) == _fmt_q(r ** -n)


# -- generator metadata in integer units -------------------------------------

DEGREES = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2),
           Fraction(2))


def random_table(rng, weights=False):
    """Up to five generators with degrees, and weights if asked, drawn
    from DEGREES."""
    gens = [("g%d" % i, rng.randrange(2), rng.choice(DEGREES),
             rng.choice(DEGREES) if weights else None)
            for i in range(rng.randrange(1, 6))]
    return Presentation(gens)


def test_rgen_key_is_degree_index_n_order():
    rng = random.Random(23)
    for _ in range(30):
        p = random_table(rng)
        rgens = [RGen(i, n) for i in range(len(p.generators))
                 for n in range(3)]
        for x, y in product(rgens, repeat=2):
            ref_x = (p.generators[x.gen].degree, x.gen, x.n)
            ref_y = (p.generators[y.gen].degree, y.gen, y.n)
            assert (p.rgen_key(x) < p.rgen_key(y)) == (ref_x < ref_y)
            assert (p.rgen_key(x) == p.rgen_key(y)) == (ref_x == ref_y)


def test_mono_metadata_matches_fraction_sums():
    rng = random.Random(29)
    for _ in range(30):
        p = random_table(rng)
        for _ in range(20):
            mono = tuple(RGen(rng.randrange(len(p.generators)),
                              rng.randrange(3))
                         for _ in range(rng.randrange(7)))
            degs = [p.generators[g].degree for g, _ in mono]
            assert p.mono_degree(mono) == sum(degs, Fraction(0))
            assert p.mono_units(mono) == sum(degs, Fraction(0)) * p.degree_unit
            assert p.mono_parity(mono) == sum(
                p.generators[g].parity for g, _ in mono) % 2
            keys = [(p.generators[g].degree, g, n) for g, n in mono]
            want = sum(1 for i in range(len(mono))
                       for j in range(i + 1, len(mono))
                       if keys[i] > keys[j] or (
                           keys[i] == keys[j] and p.generators[mono[i].gen].parity))
            assert inversions(p, mono) == want


def test_mono_weight_matches_fraction_sums():
    rng = random.Random(31)
    for _ in range(30):
        p = random_table(rng, weights=True)
        for _ in range(20):
            mono = tuple(RGen(rng.randrange(len(p.generators)),
                              rng.randrange(3))
                         for _ in range(rng.randrange(7)))
            want = sum((p.generators[g].weight + n for g, n in mono),
                       Fraction(0))
            assert p.mono_weight(mono) == want
            assert want * p.weight_unit == sum(
                p.gen_weights[g] + n * p.weight_unit for g, n in mono)


def test_mono_weight_of_undeclared_generator_still_raises():
    p = Presentation([("a", 0, 1, Fraction(3, 2)), ("b", 0, 1, None)])
    assert not p.weights_declared
    assert p.mono_weight(p.mono("a", ("a", 2))) == 5
    with pytest.raises(AlgebraError) as info:
        p.mono_weight(p.mono("a", "b"))
    assert str(info.value) == "generator b has no conformal weight"


# -- the checks on integer units still fire ----------------------------------

# a (degree 1/2) and b (degree 1) bracket to a term of degree 3/2, which
# breaks deg [a_lambda b] < deg a + deg b
BROKEN = """
generator a parity=even degree=1/2;
generator b parity=even degree=1;
bracket [a,b] = :a b:;
"""


def test_fractional_degree_bound_still_raises():
    p = parse_source(BROKEN)
    e = Engine(p)
    with pytest.raises(CalculusError) as info:
        e.pbracket(p.gen("a"), p.gen("b"))
    assert str(info.value) == "degree bound broken: P(:a:, :b:) contains :a b:"
    with pytest.raises(CalculusError) as info:
        e.lie(p.gen("b"), p.gen("a"))
    assert str(info.value) == ("degree bound broken: lie(:b:, :a:) contains "
                               ":T a b:")


class _UnboundedLie(Engine):
    """lie(b, a) = T(:a b:), as the table gives it, without the engine's
    degree bound, so only the reducer checks.  The reducer's swap step
    reads the commutator of a generator pair from _lie."""

    def _lie(self, a, b):
        return apply_T(self.pres.poly({self.pres.mono("a", "b"): 1}))


def test_non_descending_swap_still_raises():
    p = parse_source(BROKEN)
    r = Reducer(_UnboundedLie(p))
    with pytest.raises(PBWError) as info:
        r.normal_order(p.poly({p.mono("b", "a"): 1}))
    assert str(info.value) == ("correction term :T a b: does not drop the "
                               "degree below 3/2")
