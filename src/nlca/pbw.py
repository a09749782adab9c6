"""Normal ordering onto the PBW basis, basis enumeration, characters.

A monomial is normally ordered when its factors are nondecreasing in the
generator order (degree, declaration index, T-power) and no odd factor
repeats adjacently.  The reduction rewrites the leftmost violation: an
out-of-order adjacent pair (a, b) becomes the Koszul-signed swap plus the
correction  prefix (x) N(lie(a, b), suffix);  an adjacent repeat of an odd
generator a becomes  (1/2) prefix (x) N(lie(a, a), suffix).  lie(a, b) is
read through the Engine's memo; a zero one (as every free-field one is)
gives no correction to build or reduce.  After a swap at p the search for
the next violation resumes at p - 1.  Rewrites strictly descend in
(degree, inversion count), which a monitor checks on every rewrite.  The
normal form of each word asked for is stored in the Engine's memo under
("no", word), and a walk down a swap chain stops at any word stored
there: a stored normal form is what the walk from that word would build.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Presentation, RGen, TMono, TPoly, _add_scaled, render_tmono
from .calculus import Engine
from .scalars import _fmt_int, _fmt_q

# Bound on floor(L * max_weight), the length of character's table of counts
# (L the lcm of the weight denominators).  Its cost grows with the square of
# this; at the bound affine_sl2 takes about a second.
MAX_WEIGHT_UNITS = 2000

# Bound on the additions of character's product formula (a pass over the
# table per T^n-generator under the bound, so many generators cost more):
# affine_sl2 at MAX_WEIGHT_UNITS, 6,000 passes over 2,001 counts, fits.
MAX_CHARACTER_WORK = 3 * MAX_WEIGHT_UNITS * (MAX_WEIGHT_UNITS + 1)

# Bound on the number of monomials enumerate_basis lists, counted before it
# lists any: the count grows like the partition numbers, so a small weight
# bound alone still lets the output run to millions of lines.
MAX_BASIS_SIZE = 100000


class PBWError(Exception):
    pass


class WeightLimitError(PBWError):
    """A character or basis past one of the limits above."""


def inversions(pres: Presentation, mono: TMono) -> int:
    """Number of pairs p < q that violate the PBW order, counting an equal
    pair of odd factors as a violation."""
    keys = [pres.rgen_key(rg) for rg in mono]
    bits = pres.gen_parity
    d = 0
    for p, kp in enumerate(keys):
        odd = bits[mono[p][0]]
        for kq in keys[p + 1:]:
            if kp > kq or (odd and kp == kq):
                d += 1
    return d


class Reducer:
    """Normal-ordering map sigma for one presentation.  It keeps no memo of
    its own: the normal form of each word it is asked for goes into its
    Engine's memo, which every Reducer on that Engine reads."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.pres = engine.pres
        self.descent_checks = 0

    def normal_order(self, x: TPoly) -> TPoly:
        out: dict = {}
        for mono, s in x.terms.items():
            _add_scaled(out, self._no(mono), s)
        return TPoly(self.pres, out)

    def normal_order_lpoly(self, p):
        return p.map_coeffs(self.normal_order)

    def _no(self, E: TMono) -> TPoly:
        eng = self.engine
        memo = eng._memo
        key = ("no", E)
        hit = memo.get(key)
        if hit is not None:
            return hit
        # Walk the swap chain E -> swapped -> ... forward, adding the normal
        # form of each correction times the running Koszul sign, until an
        # ordered word, an odd repeat or a word whose normal form is stored.
        # The keys of the word's factors are built once and exchanged with
        # them.
        pres = self.pres
        one = pres.field.one
        bits = pres.gen_parity
        keys = [pres.rgen_key(rg) for rg in E]
        out: dict = {}
        sign = 1
        W, start = E, 0
        while True:
            pos = _leftmost_inversion(pres, W, keys, start)
            if pos is None:
                out[W] = one * sign  # the corrections have lower degree
                break
            a, b = W[pos], W[pos + 1]
            prefix, suffix = W[:pos], W[pos + 2:]
            ab = eng._lie(a, b)
            corr = TPoly(pres)
            if ab:
                corr = TPoly(pres, {prefix: one}).tensor(
                    eng.nprod(ab, TPoly(pres, {suffix: one})))
            if keys[pos] <= keys[pos + 1]:
                # adjacent repeat of an odd generator
                self._monitor(W, corr)
                if corr:
                    _add_scaled(out, self.normal_order(corr),
                                Fraction(sign, 2))
                break
            swapped = prefix + (b, a) + suffix
            self._monitor(W, corr, swapped, pos)
            if corr:
                _add_scaled(out, self.normal_order(corr), sign)
            if bits[a.gen] and bits[b.gen]:
                sign = -sign
            W = swapped
            keys[pos], keys[pos + 1] = keys[pos + 1], keys[pos]
            hit = memo.get(("no", W))
            if hit is not None:
                _add_scaled(out, hit, sign)
                break
            # the pairs left of pos - 1 are unchanged, and were ordered
            start = max(pos - 1, 0)
        return eng._keep(key, TPoly(pres, out))

    def _monitor(self, E: TMono, corr: TPoly, swapped: TMono | None = None,
                 pos: int | None = None) -> None:
        """Check one rewrite of E: its correction, and for a swap of the
        pair at pos into the word swapped, the swap itself, in O(1).  _no
        copies the rest of swapped from E, so when swapped has E's length
        and the pair exchanged, the degree is unchanged, and the inversion
        count drops by exactly one iff the pair's keys strictly descend.
        Any other word is recounted in full.  The degrees are summed only
        when the correction has terms."""
        self.descent_checks += 1
        pres = self.pres
        if swapped is not None:
            a, b = E[pos], E[pos + 1]
            if (len(swapped) == len(E) and swapped[pos] == b
                    and swapped[pos + 1] == a):
                kept = True
                lowered = pres.rgen_key(b) < pres.rgen_key(a)
            else:
                kept = pres.mono_units(swapped) == pres.mono_units(E)
                lowered = (inversions(pres, swapped)
                           == inversions(pres, E) - 1)
            if not kept:
                raise PBWError("swap changed the degree of %s"
                               % (render_tmono(pres, E),))
            if not lowered:
                raise PBWError("swap did not lower the inversion count of %s"
                               % (render_tmono(pres, E),))
        if corr.terms:
            dE = pres.mono_units(E)
            for mono in corr.terms:
                if not pres.mono_units(mono) < dE:
                    raise PBWError(
                        "correction term %s does not drop the degree below %s"
                        % (render_tmono(pres, mono), pres.mono_degree(E)))


def _leftmost_inversion(pres: Presentation, E: TMono, keys: list,
                        start: int = 0) -> int | None:
    """The first position p >= start where E[p], E[p+1] violate the order,
    read from keys, the keys of E's factors."""
    bits = pres.gen_parity
    for p in range(start, len(E) - 1):
        ka, kb = keys[p], keys[p + 1]
        if ka > kb or (ka == kb and bits[E[p][0]]):
            return p
    return None


def is_normally_ordered(pres: Presentation, mono: TMono) -> bool:
    return _leftmost_inversion(
        pres, mono, [pres.rgen_key(rg) for rg in mono]) is None


def _require_positive_weights(pres: Presentation, what: str) -> None:
    if any(w <= 0 for w in pres.gen_weights):
        raise PBWError("%s needs strictly positive weights" % what)


def enumerate_basis(pres: Presentation, weight) -> list[TMono]:
    """All normally ordered monomials of exact conformal weight `weight`.

    Requires every generator weight to be declared and positive; the list
    is in lexicographic order of the factor keys.  Weights are counted in
    integer units of 1/L, and the search enters a branch only if a table
    of the weights reachable from each suffix of the candidates says the
    rest of the weight can still be made, so every branch ends in output.
    The dimension is counted first by the product formula of `character`;
    past its limits or MAX_BASIS_SIZE monomials it raises WeightLimitError.
    """
    if not pres.weights_declared:
        raise PBWError("cannot enumerate a basis without conformal weights")
    _require_positive_weights(pres, "basis enumeration")
    weight = Fraction(weight)
    if weight < 0:
        return []
    unit = pres.weight_unit
    top, off_lattice = divmod(weight.numerator * unit, weight.denominator)
    if off_lattice:
        return []
    dims = _dims(pres, "basis at weight %s" % _fmt_q(weight), top)
    if dims[top] > MAX_BASIS_SIZE:
        raise WeightLimitError("basis at weight %s has more than %d monomials"
                               % (_fmt_q(weight), MAX_BASIS_SIZE))
    cands = sorted((RGen(g, n) for g, w in enumerate(pres.gen_weights)
                    for n in range((top - w) // unit + 1)), key=pres.rgen_key)
    units = [pres.gen_weights[g] + n * unit for g, n in cands]
    # after a factor at index ci the next one is drawn from index ci on;
    # an odd factor cannot repeat, so from ci + 1
    nxt = [ci + pres.gen_parity[g] for ci, (g, _) in enumerate(cands)]
    # reach[ci] has bit r set iff cands[ci:] can make weight r (in units)
    full = (1 << (top + 1)) - 1
    reach = [0] * len(cands) + [1]
    for ci in reversed(range(len(cands))):
        r = shifted = reach[ci + 1]
        while shifted:  # an odd factor once, an even one any number of times
            shifted = (shifted << units[ci]) & full
            r |= shifted
            if nxt[ci] > ci:
                break
        reach[ci] = r
    # depth first, children pushed in reverse so they pop in order
    out: list[TMono] = []
    stack = [((), 0, top)]
    while stack:
        prefix, start, remaining = stack.pop()
        if remaining == 0:
            out.append(prefix)
            continue
        for ci in reversed(range(start, len(cands))):
            rest = remaining - units[ci]
            if rest >= 0 and reach[nxt[ci]] >> rest & 1:
                stack.append((prefix + (cands[ci],), nxt[ci], rest))
    return out


def character(pres: Presentation, max_weight) -> dict[Fraction, int]:
    """Graded dimensions weight -> dim up to max_weight inclusive.

    The table walks the weight lattice generated by the declared weights in
    steps of 1/L, L the lcm of their denominators, starting at 0.  By the
    PBW theorem the dimensions are the coefficients of the product over the
    T^n-generators of weight at most max_weight of 1/(1 - q^w) (even) or
    1 + q^w (odd); each factor is one pass over a list of counts in integer
    units of 1/L, so the cost is O(top * #factors) integer additions for
    top = floor(L * max_weight), whatever the size of the basis.
    """
    if not pres.weights_declared:
        raise PBWError("cannot form a character without conformal weights")
    _require_positive_weights(pres, "character")
    max_weight = Fraction(max_weight)
    if max_weight < 0:
        return {}
    unit = pres.weight_unit
    top = max_weight.numerator * unit // max_weight.denominator
    dims = _dims(pres, "character to weight %s" % _fmt_q(max_weight), top)
    return {Fraction(k, unit): d for k, d in enumerate(dims)}


def _dims(pres: Presentation, what: str, top: int) -> list[int]:
    """dims[k] = dimension at weight k/L, for k = 0..top, L the weight_unit
    of pres (weights positive).  The work is one pass over the top + 1
    counts for each T^n-generator of weight at most top/L; before any pass,
    `what` is refused past MAX_WEIGHT_UNITS steps or MAX_CHARACTER_WORK
    additions."""
    if top > MAX_WEIGHT_UNITS:
        raise WeightLimitError("%s needs %s weight steps, past the limit %d"
                               % (what, _fmt_int(top), MAX_WEIGHT_UNITS))
    unit = pres.weight_unit
    work = (top + 1) * sum(max(0, (top - w) // unit + 1)
                           for w in pres.gen_weights)
    if work > MAX_CHARACTER_WORK:
        raise WeightLimitError("%s needs %s additions, past the limit %d"
                               % (what, _fmt_int(work), MAX_CHARACTER_WORK))
    dims = [1] + [0] * top
    for first, parity in zip(pres.gen_weights, pres.gen_parity):
        for w in range(first, top + 1, unit):
            if parity:
                for k in range(top, w - 1, -1):
                    dims[k] += dims[k - w]
            else:
                for k in range(w, top + 1):
                    dims[k] += dims[k - w]
    return dims
