"""Normal ordering onto the PBW basis, basis enumeration, characters.

A monomial is normally ordered when its factors are nondecreasing in the
generator order (degree, declaration index, T-power) and no odd factor
repeats adjacently.  The reduction rewrites the leftmost violation: an
out-of-order adjacent pair (a, b) becomes the Koszul-signed swap plus the
correction  prefix (x) N(lie(a, b), suffix);  an adjacent repeat of an odd
generator a becomes  (1/2) prefix (x) N(lie(a, a), suffix).  Rewrites
strictly descend in (degree, inversion count), which is what the checked
mode monitors.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import Presentation, RGen, TMono, TPoly, _add_scaled, render_tmono
from .calculus import Engine


class PBWError(Exception):
    pass


def inversions(pres: Presentation, mono: TMono) -> int:
    """Number of pairs p < q that violate the PBW order, counting an equal
    pair of odd factors as a violation."""
    keys = [pres.rgen_key(rg) for rg in mono]
    d = 0
    for p in range(len(mono)):
        for q in range(p + 1, len(mono)):
            if keys[p] > keys[q]:
                d += 1
            elif keys[p] == keys[q] and pres.rgen_parity(mono[p]):
                d += 1
    return d


class Reducer:
    """Normal-ordering map sigma for one presentation, memoized."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.pres = engine.pres
        self.checked = engine.checked
        self._memo: dict[TMono, TPoly] = {}
        self.descent_checks = 0

    def normal_order(self, x: TPoly) -> TPoly:
        out: dict = {}
        for mono, s in x.terms.items():
            _add_scaled(out, self._no(mono), s)
        return TPoly(self.pres, out)

    def normal_order_lpoly(self, p):
        return p.map_coeffs(self.normal_order)

    def _no(self, E: TMono) -> TPoly:
        hit = self._memo.get(E)
        if hit is not None:
            return hit
        pres = self.pres
        pos = _leftmost_inversion(pres, E)
        if pos is None:
            out = TPoly(pres, {E: pres.field.one})
        else:
            a, b = E[pos], E[pos + 1]
            prefix, suffix = E[:pos], E[pos + 2:]
            prefix_poly = TPoly(pres, {prefix: pres.field.one})
            suffix_poly = TPoly(pres, {suffix: pres.field.one})
            eng = self.engine
            ab = eng.lie(TPoly(pres, {(a,): pres.field.one}),
                         TPoly(pres, {(b,): pres.field.one}))
            corr = prefix_poly.tensor(eng.nprod(ab, suffix_poly))
            if pres.rgen_key(a) > pres.rgen_key(b):
                swapped = prefix + (b, a) + suffix
                sign = pres.parity_sign((a,), (b,))
                if self.checked:
                    self._monitor(E, swapped, corr)
                out = self.normal_order(corr)
                _add_scaled(out.terms, self._no(swapped), sign)
            else:
                # adjacent repeat of an odd generator
                if self.checked:
                    self._monitor(E, None, corr)
                out = self.normal_order(corr).scale(Fraction(1, 2))
        self._memo[E] = out
        return out

    def _monitor(self, E: TMono, swapped: TMono | None, corr: TPoly) -> None:
        self.descent_checks += 1
        pres = self.pres
        dE = pres.mono_degree(E)
        if swapped is not None:
            if pres.mono_degree(swapped) != dE:
                raise PBWError("swap changed the degree of %s"
                               % (render_tmono(pres, E),))
            if inversions(pres, swapped) != inversions(pres, E) - 1:
                raise PBWError("swap did not lower the inversion count of %s"
                               % (render_tmono(pres, E),))
        for mono in corr.terms:
            if not pres.mono_degree(mono) < dE:
                raise PBWError(
                    "correction term %s does not drop the degree below %s"
                    % (render_tmono(pres, mono), dE))


def _leftmost_inversion(pres: Presentation, E: TMono) -> int | None:
    for p in range(len(E) - 1):
        ka, kb = pres.rgen_key(E[p]), pres.rgen_key(E[p + 1])
        if ka > kb:
            return p
        if ka == kb and pres.rgen_parity(E[p]):
            return p
    return None


def is_normally_ordered(pres: Presentation, mono: TMono) -> bool:
    return _leftmost_inversion(pres, mono) is None


def enumerate_basis(pres: Presentation, weight) -> list[TMono]:
    """All normally ordered monomials of exact conformal weight `weight`.

    Requires every generator weight to be declared and positive; the list
    is in lexicographic order of the factor keys.
    """
    if not pres.weights_declared:
        raise PBWError("cannot enumerate a basis without conformal weights")
    if any(g.weight <= 0 for g in pres.generators):
        raise PBWError("basis enumeration needs strictly positive weights")
    weight = Fraction(weight)
    if weight < 0:
        return []
    cands = []
    for g in pres.generators:
        n = 0
        while g.weight + n <= weight:
            cands.append(RGen(g.index, n))
            n += 1
    cands.sort(key=pres.rgen_key)
    out: list[TMono] = []

    def extend(prefix: tuple, start: int, remaining: Fraction):
        if remaining == 0:
            out.append(prefix)
            return
        for ci in range(start, len(cands)):
            rg = cands[ci]
            w = pres.rgen_weight(rg)
            if w > remaining:
                continue
            # an odd factor cannot repeat; evens may
            nxt = ci + 1 if pres.rgen_parity(rg) else ci
            extend(prefix + (rg,), nxt, remaining - w)

    extend((), 0, weight)
    return out


def character(pres: Presentation, max_weight) -> dict[Fraction, int]:
    """Graded dimensions weight -> dim up to max_weight inclusive.

    The table walks the weight lattice generated by the declared weights in
    steps of 1/lcm of their denominators, starting at 0.
    """
    if not pres.weights_declared:
        raise PBWError("cannot form a character without conformal weights")
    max_weight = Fraction(max_weight)
    step = Fraction(1, lcm(*(g.weight.denominator for g in pres.generators))) \
        if pres.generators else Fraction(1)
    out: dict[Fraction, int] = {}
    w = Fraction(0)
    while w <= max_weight:
        out[w] = len(enumerate_basis(pres, w))
        w += step
    return out
