"""Quasi-product and quasi-bracket on the tensor algebra."""

import random
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest

from nlca import ansatz
from nlca.algebra import Presentation, RGen, TPoly, apply_T, render_tpoly
from nlca.calculus import CalculusError, Engine, _beta, _int_minus_T
from nlca.formal import LPoly
from nlca.frontend import load_bundled, parse_path
from nlca.pbw import Reducer
from nlca.verify import check_jacobi, check_skew

from builders import (bundled_names, degree, make_broken_skew_virasoro,
                      memo_terms, weights)
from conftest import CONCRETE
from randgen import random_coeff, random_mono, random_single, random_tensor


def neg_lambda(q):
    return -q.shift("lambda", 1)


def lambda_plus_T(q):
    return q.shift("lambda", 1) + q.map_coeffs(apply_T)


# -- frozen values -----------------------------------------------------------

def test_nprod_quadratic_virasoro(virasoro, engines):
    e = engines["virasoro"]
    p = virasoro
    c = p.field.param("c")
    LL = p.gen("L").tensor(p.gen("L"))
    got = e.nprod(LL, p.gen("L"))
    want = p.poly({
        p.mono(("L", 4)): c / 24,
        p.mono(("L", 1), ("L", 1)): 2,
        p.mono(("L", 2), "L"): 2,
        p.mono("L", "L", "L"): 1,
    })
    assert got == want
    assert render_tpoly(got) == \
        "c/24*:T^4 L: + 2*:T L T L: + 2*:T^2 L L: + :L L L:"


def test_nprod_unit_neutral(presentations, engines):
    rng = random.Random(5)
    for name in CONCRETE:
        p, e = presentations[name], engines[name]
        for _ in range(5):
            x = random_tensor(p, rng)
            assert e.nprod(p.unit(), x) == x
            assert e.nprod(x, p.unit()) == x


def test_m_element_virasoro(virasoro, engines):
    p = virasoro
    got = engines["virasoro"].m_element(p.unit(), p.rgen("L", 1),
                                        p.rgen("L"), p.unit())
    want = p.poly({
        p.mono(("L", 1), "L"): 1,
        p.mono("L", ("L", 1)): -1,
        p.mono(("L", 3)): Fraction(1, 6),
    })
    assert got == want


def test_m_element_is_tensor_of_sn(presentations, engines):
    rng = random.Random(6)
    for name in CONCRETE:
        p, e = presentations[name], engines[name]
        for _ in range(5):
            b, c = random_mono(p, rng, 1, False)[0], random_mono(p, rng, 1, False)[0]
            D = random_tensor(p, rng)
            bp = TPoly(p, {(b,): p.field.one})
            cp = TPoly(p, {(c,): p.field.one})
            sn = e.structure_defect("sn", bp, cp, D)
            A = random_tensor(p, rng, terms=1)
            assert e.m_element(A, b, c, D) == A.tensor(sn)


def test_pbracket_boson_pair(free_boson, engines):
    p = free_boson
    e = engines["free_boson"]
    aa = p.gen("a").tensor(p.gen("a"))
    got = e.pbracket(p.gen("a"), aa)
    assert got == LPoly(p, ("lambda",), {(1,): p.gen("a").scale(2)})


def test_lie_and_jacobi_sl2(affine_sl2, engines):
    p = affine_sl2
    e = engines["affine_sl2"]
    k = p.field.param("k")
    assert e.pbracket(p.gen("e"), p.gen("f")) == \
        LPoly.from_coeff_list(p, "lambda", [p.gen("h"), p.unit().scale(k)])
    assert e.lie(p.gen("e"), p.gen("f")) == p.gen("h", 1)
    assert e.lie(p.gen("h"), p.gen("h")).is_zero
    assert e.jacobiator(p.gen("e"), p.gen("f"), p.gen("h")).is_zero


def test_lie_fermion_vanishes(free_fermion, engines):
    p = free_fermion
    assert engines["free_fermion"].lie(p.gen("phi"), p.gen("phi")).is_zero


def test_jacobiator_zero_for_linear_tables(presentations, engines):
    for name in ("virasoro", "free_boson", "free_fermion", "affine_sl2"):
        p, e = presentations[name], engines[name]
        for ga in p.generators:
            for gb in p.generators:
                for gc in p.generators:
                    j = e.jacobiator(p.gen(ga.name), p.gen(gb.name),
                                     p.gen(gc.name))
                    assert j.is_zero, (name, ga.name, gb.name, gc.name)


def test_jacobiator_w3_nonzero_before_reduction(w3, engines):
    # the quadratic term obstructs an exact identity: the residue carries
    # 2*alpha * L (x) TL at lambda^1 and its negative at mu^1
    p = w3
    e = engines["w3"]
    j = e.jacobiator(p.gen("W"), p.gen("W"), p.gen("L"))
    assert not j.is_zero
    c = p.field.param("c")
    alpha = 16 / (22 + 5 * c)
    mono = p.mono("L", ("L", 1))
    assert j.coeff((1, 0)).terms.get(mono) == alpha
    assert j.coeff((0, 1)).terms.get(mono) == -alpha


def pbracket_jacobiator(e, x, y, z):
    """The jacobiator of parity-homogeneous x, y, z from public pbracket
    calls, each of its three terms computed on its own."""
    p = e.pres
    sign = p.parity_sign(next(iter(x.terms)), next(iter(y.terms)))
    out = LPoly(p, ("lambda", "mu"))

    def add(i, j, W, s):
        nonlocal out
        out = out + LPoly(p, ("lambda", "mu"), {(i, j): W.scale(s)})
    for (j,), Z in e.pbracket(y, z).terms.items():
        for (i,), W in e.pbracket(x, Z).terms.items():
            add(i, j, W, 1)
    for (i,), Z in e.pbracket(x, z).terms.items():
        for (j,), W in e.pbracket(y, Z).terms.items():
            add(i, j, W, -sign)
    for (i,), Z in e.pbracket(x, y).terms.items():
        for (n,), W in e.pbracket(Z, z).terms.items():
            for k in range(n + 1):
                add(i + k, n - k, W, -comb(n, k))
    return out


def test_jacobiator_with_equal_first_operands_matches_pbracket(
        presentations):
    # J(A, A, C) reads its second term off its first; the reference
    # computes both, on an odd generator, composite and T^n operands, a
    # sum whose monomial pairs are partly equal, and a table that is not
    # skewsymmetric, since the shortcut does not rest on skew
    rng = random.Random(2417)
    cases = []
    for name, (xs, zs) in {
            "free_fermion": ([("phi",)], ["phi"]),
            "virasoro": ([("L",), ("L", "L"), (("L", 1), "L")], ["L"]),
            "w3": ([("L",), ("W",), ("L", "L"), (("W", 1),)], ["L", "W"]),
    }.items():
        p = presentations[name]
        cases += [(p, p.poly({p.mono(*x): 1}), p.gen(z)) for x in xs
                  for z in zs]
    w3 = presentations["w3"]
    cases.append((w3, random_tensor(w3, rng, terms=3, allow_empty=False),
                  w3.gen("W")))
    skewed = make_broken_skew_virasoro()
    cases += [(skewed, skewed.gen("L", n), skewed.gen("L")) for n in (0, 1)]
    engines = {}
    for p, x, z in cases:
        e = engines.setdefault(id(p), Engine(p))
        j = e.jacobiator(x, x, z)
        assert j == pbracket_jacobiator(e, x, x, z), (p.name, str(x), str(z))
    assert not engines[id(skewed)].jacobiator(
        skewed.gen("L"), skewed.gen("L"), skewed.gen("L")).is_zero


def _read_off_tables():
    golden = Path(__file__).parent / "golden"
    return ([load_bundled(name) for name in bundled_names()]
            + [parse_path(golden / name) for name in
               ("w3_perturbed.nlca", "super_virasoro.nlca")]
            + [make_broken_skew_virasoro()])


def _p_keys(e):
    return {k for k in e._memo if k[0] == "p"}


def test_nested_brackets_read_off_skew_match_plain_path():
    # a jacobiator reads half the coefficients of a nested P(X, X) off the
    # other half when sl(X, X) = 0; the plain path computes them all.  X
    # takes each place a repeated operand can: a generator, its T and T^2
    # lifts, and a seeded sum of T^n-generators
    rng = random.Random(2903)
    fewer = set()
    for p in _read_off_tables():
        derived, plain = Engine(p), Engine(p)
        plain._skew_exact = lambda X: False
        gens = [p.gen(g.name) for g in p.generators]
        xs = [p.gen(g.name, n) for g in p.generators for n in (1, 2)]
        xs.append(random_tensor(p, rng, terms=3, max_factors=1,
                                allow_empty=False))
        later = [t for x, z in product(xs, gens)
                 for t in ((x, x, z), (z, x, x), (x, z, x))]
        for n, (x, y, z) in enumerate(list(product(gens, repeat=3)) + later):
            if n == len(gens) ** 3:
                assert _p_keys(derived) <= _p_keys(plain), p.name
                if len(_p_keys(derived)) < len(_p_keys(plain)):
                    fewer.add(p.name)
            assert derived.jacobiator(x, y, z) == plain.jacobiator(x, y, z), \
                (p.name, str(x), str(y), str(z))
    # nothing is read off the table that is not skewsymmetric (no name);
    # the free fields' and affine_sl2's self-brackets have no nonzero
    # coefficient that skewsymmetry fixes
    assert fewer == {"virasoro", "w3", "w3_ansatz", "w3_perturbed",
                     "super_virasoro"}


def test_check_jacobi_on_w3_reads_off_composite_brackets():
    # 42 P entries when every nested coefficient is computed; :T L L:,
    # :L T L: and :T^3 L: sit in the lambda^0 coefficient of P(W, W), whose
    # brackets are read off those of its odd lambda-powers
    p = load_bundled("w3")
    e = Engine(p)
    check_skew(p, e)
    assert (e.stats["sl_calls"], e.stats["sl_hits"]) == (4, 0)
    check_jacobi(p, e, Reducer(e), skew_ok=True)
    assert e.stats["sl_hits"] > 0
    keys = _p_keys(e)
    assert len(keys) == 22
    never = {p.mono(("L", 1), "L"), p.mono("L", ("L", 1)), p.mono(("L", 3))}
    assert not any(A in never or B in never for _, A, B in keys)


def test_solve_w3_ansatz_stores_fewer_brackets(monkeypatch):
    # solve's extraction and re-verification stored 82 P entries when
    # every nested coefficient was computed
    stored = []
    keep = Engine._keep

    def counting(self, key, *args):
        stored.append(key[0])
        return keep(self, key, *args)
    monkeypatch.setattr(Engine, "_keep", counting)
    skipped = []
    res = ansatz.solve(load_bundled("w3_ansatz"), ("delta", Fraction(1, 6)),
                       skipped)
    assert res.report.ok and skipped == [("W", "W", "W")]
    assert stored.count("p") <= 41


# -- identities --------------------------------------------------------------

def test_nprod_T_derivation(presentations, engines):
    rng = random.Random(7)
    for name in CONCRETE:
        p, e = presentations[name], engines[name]
        for _ in range(8):
            x = random_tensor(p, rng)
            y = random_tensor(p, rng)
            lhs = apply_T(e.nprod(x, y))
            rhs = e.nprod(apply_T(x), y) + e.nprod(x, apply_T(y))
            assert lhs == rhs, name


def test_pbracket_sesquilinear(presentations, engines):
    rng = random.Random(8)
    for name in CONCRETE:
        p, e = presentations[name], engines[name]
        for _ in range(6):
            x = random_tensor(p, rng)
            y = random_tensor(p, rng)
            q = e.pbracket(x, y)
            assert e.pbracket(apply_T(x), y) == neg_lambda(q), name
            assert e.pbracket(x, apply_T(y)) == lambda_plus_T(q), name


def test_degree_bounds(presentations, engines):
    rng = random.Random(9)
    for name in CONCRETE:
        p, e = presentations[name], engines[name]
        for _ in range(6):
            x = random_tensor(p, rng, allow_empty=False)
            y = random_tensor(p, rng, allow_empty=False)
            if x.is_zero or y.is_zero:
                continue
            bound = degree(x) + degree(y)
            n = e.nprod(x, y)
            if not n.is_zero:
                assert degree(n) <= bound
            for X in e.pbracket(x, y).terms.values():
                assert degree(X) < bound


def test_weight_rule(presentations, engines):
    # coefficient of lambda^k in the bracket is homogeneous of weight
    # w(x) + w(y) - k - 1; the product N sits at weight w(x) + w(y)
    rng = random.Random(10)
    for name in CONCRETE:
        p, e = presentations[name], engines[name]
        for _ in range(10):
            mx = random_mono(p, rng, allow_empty=False)
            my = random_mono(p, rng, allow_empty=False)
            x = TPoly(p, {mx: p.field.one})
            y = TPoly(p, {my: p.field.one})
            wx, wy = p.mono_weight(mx), p.mono_weight(my)
            n = e.nprod(x, y)
            assert weights(n) <= {wx + wy}
            for (k,), X in e.pbracket(x, y).terms.items():
                assert weights(X) == {wx + wy - k - 1}, name


def test_wick_left_defect_vanishes_for_single_left(presentations, engines):
    rng = random.Random(11)
    for name in CONCRETE:
        p, e = presentations[name], engines[name]
        for _ in range(4):
            a = random_single(p, rng)
            B = random_tensor(p, rng, terms=1)
            C = random_tensor(p, rng, terms=1)
            assert e.structure_defect("wl", a, B, C).is_zero, name


def test_wick_right_defect_vanishes_for_single_left(presentations, engines):
    rng = random.Random(13)
    for name in CONCRETE:
        p, e = presentations[name], engines[name]
        for _ in range(4):
            a = random_single(p, rng)
            B = random_tensor(p, rng, terms=1)
            C = random_tensor(p, rng, terms=1)
            assert e.structure_defect("wr", a, B, C).is_zero, name


def test_quasi_assoc_defect_vanishes_for_single_left(presentations, engines):
    rng = random.Random(12)
    for name in CONCRETE:
        p, e = presentations[name], engines[name]
        for _ in range(4):
            a = random_single(p, rng)
            B = random_tensor(p, rng, terms=1)
            C = random_tensor(p, rng, terms=1)
            assert e.structure_defect("q", a, B, C).is_zero, name


def test_skew_defect_vanishes_on_generators(presentations, engines):
    for name in CONCRETE:
        p, e = presentations[name], engines[name]
        for ga in p.generators:
            for gb in p.generators:
                d = e.structure_defect("sl", p.gen(ga.name), p.gen(gb.name))
                assert d.is_zero, (name, ga.name, gb.name)


def test_defect_argument_checks(engines):
    e = engines["virasoro"]
    p = e.pres
    with pytest.raises(CalculusError):
        e.structure_defect("sl", p.gen("L"), p.gen("L"), p.gen("L"))
    with pytest.raises(CalculusError):
        e.structure_defect("wl", p.gen("L"), p.gen("L"))
    with pytest.raises(CalculusError):
        e.structure_defect("nope", p.gen("L"), p.gen("L"))


def test_memoization_transparent(presentations):
    rng = random.Random(13)
    for name in ("virasoro", "affine_sl2", "free_fermion"):
        p = presentations[name]
        warm = Engine(p)
        for _ in range(4):
            x = random_tensor(p, rng)
            y = random_tensor(p, rng)
            warm.nprod(x, y)
            warm.pbracket(x, y)
            hits = warm.stats["n_hits"] + warm.stats["p_hits"]
            # the warm Engine answers from its memo, a fresh one computes
            fresh = Engine(p)
            assert warm.nprod(x, y) == fresh.nprod(x, y)
            assert warm.pbracket(x, y) == fresh.pbracket(x, y)
            assert warm.stats["n_hits"] + warm.stats["p_hits"] > hits


def test_memo_entries_unchanged_by_reuse(presentations):
    # results are accumulated in place; a memoized TPoly must never be
    # the accumulator.  The words have two or more factors, since N(a, B)
    # for a single factor a is a concatenation the memo never sees.
    rng = random.Random(17)

    def words(p):
        out = {}
        while len(out) < 2:
            mono = random_mono(p, rng)
            if len(mono) >= 2:
                out[mono] = random_coeff(rng)
        return p.poly(out)

    for name in ("virasoro", "affine_sl2", "free_fermion"):
        p = presentations[name]
        e = Engine(p)
        x, y = words(p), words(p)
        a, b = random_single(p, rng), random_single(p, rng)
        e.nprod(x, y)
        e.pbracket(x, y)
        e.lie(a + b, b)
        snap = memo_terms(e._memo)
        assert {k[0] for k in snap} == {"n", "p", "lie"}
        for _ in range(3):
            e.nprod(x, y)
            e.nprod(x + y, y)
            e.pbracket(x, y)
            e.lie(x, y)
            e.lie(a + b, b)
            e.lie(b, a + b)
            e.structure_defect("sn", a, b + a, y)
        assert e.stats["n_hits"] > 0 and e.stats["p_hits"] > 0
        assert e.stats["lie_hits"] > 0
        now = memo_terms(e._memo)
        for k, terms in snap.items():
            assert now[k] == terms


def test_bilinearity(presentations, engines):
    rng = random.Random(14)
    for name in ("virasoro", "free_boson"):
        p, e = presentations[name], engines[name]
        for _ in range(6):
            x = random_tensor(p, rng)
            y = random_tensor(p, rng)
            z = random_tensor(p, rng)
            s = p.field.convert(Fraction(rng.randrange(-3, 4), 2))
            assert e.nprod(x + y.scale(s), z) == \
                e.nprod(x, z) + e.nprod(y, z).scale(s)
            assert e.pbracket(z, x + y.scale(s)) == \
                e.pbracket(z, x) + e.pbracket(z, y).scale(s)


def test_beta_tail_coefficient():
    # the closed form that replaces the k-sum in the P and wr tails
    for n in range(9):
        for m in range(9):
            assert _beta(n, m) == sum(
                Fraction(comb(n, k) * (-1) ** (n - k), n - k + m + 1)
                for k in range(n + 1)), (n, m)


# -- the closed-form commutator of two T^n-generators ------------------------

def random_coeff_table(rng):
    """Two or three generators of degree 1 or 2, one parameter c, and a
    bracket on every given pair whose lambda-coefficients are sums of
    monomials under the degree bound with randgen coefficients, some
    times c."""
    gens = [("g%d" % i, rng.randrange(2), rng.choice((1, 2)), None)
            for i in range(rng.randrange(2, 4))]
    p = Presentation(gens, params=("c",))
    c = p.field.param("c")
    for i, j in product(range(len(gens)), repeat=2):
        if i > j or rng.random() < 0.2:
            continue
        bound = gens[i][2] + gens[j][2]
        coeffs = []
        for _ in range(rng.randrange(1, 4)):
            terms = {}
            for _ in range(rng.randrange(3)):
                mono = ()
                while rng.random() < 0.6:
                    g = rng.randrange(len(gens))
                    if p.mono_degree(mono) + gens[g][2] < bound:
                        mono += (RGen(g, rng.randrange(3)),)
                s = p.field.convert(random_coeff(rng))
                terms[mono] = s * c if rng.random() < 0.3 else s
            coeffs.append(p.poly(terms))
        p.set_bracket(gens[i][0], gens[j][0], coeffs)
    return p


def test_lie_closed_form_matches_the_integral():
    # the memoized closed form against the plain path: the sesquilinear
    # expansion (-lambda)^m (lambda+T)^n [a_lambda b] of the stored table,
    # integrated over [-T, 0]; same value and same rendering, and through
    # Engine.lie too
    rng = random.Random(41)
    tables = [load_bundled(name) for name in bundled_names()]
    tables += [random_coeff_table(rng) for _ in range(8)]
    assert {p.name for p in tables} >= {"free_fermion", "w3", "w3_ansatz"}
    for p in tables:
        e = Engine(p)
        one = p.field.one
        rgens = [RGen(g, n) for g in range(len(p.generators))
                 for n in range(5)]
        for a, b in product(rgens, repeat=2):
            want = _int_minus_T(p, p.bracket_r(a, b))
            got = e._lie(a, b)
            assert got == want, (p.name, a, b)
            assert render_tpoly(got) == render_tpoly(want)
            assert e.lie(TPoly(p, {(a,): one}), TPoly(p, {(b,): one})) == want
        assert sum(k[0] == "lie" for k in e._memo) == len(rgens) ** 2
