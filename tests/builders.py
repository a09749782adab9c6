"""Programmatic presentation constructors used across the test suite.

These are built directly through the algebra API, independent of the DSL
files bundled with the package; the frontend tests compare the two with
same_presentation.  degree and weights read the grading of a TPoly.
"""

from fractions import Fraction
from importlib import resources

from nlca.algebra import Presentation


def make_virasoro():
    p = Presentation([("L", 0, 2, 2)], params=("c",), name="virasoro")
    c = p.field.param("c")
    p.set_bracket("L", "L", [
        p.gen("L", 1),
        p.gen("L").scale(2),
        p.zero(),
        p.unit().scale(c / 12),
    ])
    return p


def make_broken_skew_virasoro():
    # lambda coefficient 3 instead of 2: the table is no longer
    # skewsymmetric, though weights and grading still hold
    p = Presentation([("L", 0, 2, 2)], params=("c",))
    c = p.field.param("c")
    p.set_bracket("L", "L", [p.gen("L", 1), p.gen("L").scale(3), p.zero(),
                             p.unit().scale(c / 12)])
    return p


def make_free_boson():
    p = Presentation([("a", 0, 1, 1)], name="free_boson")
    p.set_bracket("a", "a", [p.zero(), p.unit()])
    return p


def make_free_fermion():
    p = Presentation([("phi", 1, 1, Fraction(1, 2))], name="free_fermion")
    p.set_bracket("phi", "phi", [p.unit()])
    return p


def make_affine_sl2():
    p = Presentation([("e", 0, 1, 1), ("h", 0, 1, 1), ("f", 0, 1, 1)],
                     params=("k",), name="affine_sl2")
    k = p.field.param("k")
    p.set_bracket("h", "h", [p.zero(), p.unit().scale(2 * k)])
    p.set_bracket("h", "e", [p.gen("e").scale(2)])
    p.set_bracket("h", "f", [p.gen("f").scale(-2)])
    p.set_bracket("e", "f", [p.gen("h"), p.unit().scale(k)])
    p.set_bracket("e", "e", [])
    p.set_bracket("f", "f", [])
    return p


def _w3_table(p, alpha, beta, gamma, delta, epsilon):
    c = p.field.param("c")
    p.set_bracket("L", "L", [
        p.gen("L", 1),
        p.gen("L").scale(2),
        p.zero(),
        p.unit().scale(c / 12),
    ])
    p.set_bracket("L", "W", [p.gen("W", 1), p.gen("W").scale(3)])
    LL = p.poly({p.mono(("L", 1), "L"): alpha, p.mono("L", ("L", 1)): alpha})
    p.set_bracket("W", "W", [
        LL + p.gen("W", 2).scale(beta) + p.gen("L", 3).scale(gamma),
        (p.poly({p.mono("L", "L"): 2 * alpha})
         + p.gen("W", 1).scale(2 * beta)
         + p.gen("L", 2).scale(2 * gamma + delta)),
        p.gen("L", 1).scale(3 * delta),
        p.gen("L").scale(2 * delta),
        p.zero(),
        p.unit().scale(epsilon),
    ])


def make_w3():
    p = Presentation([("L", 0, 2, 2), ("W", 0, 3, 3)], params=("c",), name="w3")
    c = p.field.param("c")
    _w3_table(p, 16 / (22 + 5 * c), p.field.zero, (c - 10) / (3 * (22 + 5 * c)),
              p.field.convert(Fraction(1, 6)), c / 360)
    return p


def make_w3_ansatz():
    p = Presentation([("L", 0, 2, 2), ("W", 0, 3, 3)], params=("c",),
                     unknowns=("alpha", "beta", "gamma", "delta", "epsilon"),
                     name="w3_ansatz")
    f = p.field
    _w3_table(p, f.param("alpha"), f.param("beta"), f.param("gamma"),
              f.param("delta"), f.param("epsilon"))
    return p


BUILDERS = {
    "virasoro": make_virasoro,
    "free_boson": make_free_boson,
    "free_fermion": make_free_fermion,
    "affine_sl2": make_affine_sl2,
    "w3": make_w3,
    "w3_ansatz": make_w3_ansatz,
}


def bundled_names():
    """The names of the algebra files shipped with the package."""
    root = resources.files("nlca") / "algebras"
    return sorted(p.name[:-5] for p in root.iterdir()
                  if p.name.endswith(".nlca"))


def same_presentation(p, q):
    """Structural equality, ignoring object identity."""
    if (p.name, p.params, p.unknowns) != (q.name, q.params, q.unknowns):
        return False
    if ([(g.name, g.parity, g.degree, g.weight) for g in p.generators]
            != [(g.name, g.parity, g.degree, g.weight) for g in q.generators]):
        return False
    if p.given_pairs() != q.given_pairs():
        return False
    return all([x.terms for x in p.pair_coeffs(*key)]
               == [y.terms for y in q.pair_coeffs(*key)]
               for key in p.given_pairs())


def degree(x):
    """Max degree over the monomials of x; None for the zero element."""
    if not x.terms:
        return None
    return max(x.pres.mono_degree(m) for m in x.terms)


def weights(x):
    """The set of conformal weights of the monomials of x."""
    return {x.pres.mono_weight(m) for m in x.terms}


def memo_terms(memo):
    """A copy of the terms of each entry of an Engine's memo, by key: a P
    entry is a list of TPolys, every other entry a TPoly."""
    return {k: [dict(X.terms) for X in v] if isinstance(v, list)
            else dict(v.terms) for k, v in memo.items()}
