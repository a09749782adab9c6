"""Seeded random tensor elements for the property suites.

Sizes are capped per presentation so a single engine call stays well
under a second: factor count, T power, and total monomial degree all
shrink as generator degrees grow.
"""

from fractions import Fraction

from nlca.algebra import RGen, TPoly

# name -> (max tensor factors, max T power, max monomial degree)
CAPS = {
    "virasoro": (2, 2, 4),
    "free_boson": (3, 1, 3),
    "free_fermion": (3, 2, 3),
    "affine_sl2": (3, 1, 3),
    "w3": (2, 1, 4),
    "w3_ansatz": (2, 1, 4),
}
DEFAULT_CAPS = (2, 1, 4)


def caps_for(pres):
    return CAPS.get(pres.name, DEFAULT_CAPS)


def random_rgen(pres, rng, max_n=None):
    if max_n is None:
        max_n = caps_for(pres)[1]
    return RGen(rng.randrange(len(pres.generators)), rng.randrange(max_n + 1))


def random_mono(pres, rng, max_factors=None, allow_empty=True):
    maxf, _, maxdeg = caps_for(pres)
    if max_factors is None:
        max_factors = maxf
    lo = 0 if allow_empty else 1
    for _ in range(50):
        k = rng.randrange(lo, max_factors + 1)
        mono = tuple(random_rgen(pres, rng) for _ in range(k))
        if pres.mono_degree(mono) <= maxdeg:
            return mono
    return (random_rgen(pres, rng),) if not allow_empty else ()


def random_coeff(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))


def random_tensor(pres, rng, terms=2, max_factors=None, allow_empty=True):
    out = {}
    for _ in range(terms):
        mono = random_mono(pres, rng, max_factors, allow_empty)
        out[mono] = out.get(mono, 0) + random_coeff(rng)
    return pres.poly(out)


def random_single(pres, rng):
    """A scaled T^n-generator, the shape bracket arguments often take."""
    return TPoly(pres, {(random_rgen(pres, rng),):
                        pres.field.convert(random_coeff(rng))})
