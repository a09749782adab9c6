"""Generators, tensor monomials and presentations.

A presentation declares a finite set of generators, each with a parity, a
positive degree and optionally a conformal weight, plus a lambda-bracket
table on generator pairs.  The free objects built on top of the generators
are T-monomials (tensor words in T^n-derivatives of generators) and their
finite linear combinations (TPoly).

Degrees grade the tensor algebra: deg(T^n a) = deg(a), deg of a word is the
sum over its factors, the empty word has degree 0.  Conformal weight of
T^n a is weight(a) + n.  Parity of a word is the mod-2 sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple

from .scalars import Scalar, affine_defects, is_name, scalar_field

_RESERVED = ("T", "lambda")  # names with a meaning in the file format


class AlgebraError(Exception):
    pass


class RGen(NamedTuple):
    """T^n applied to the generator with declaration index `gen`."""
    gen: int
    n: int


TMono = tuple  # tuple[RGen, ...]


@dataclass(frozen=True)
class GeneratorDecl:
    name: str
    parity: int
    degree: Fraction
    weight: Fraction | None
    index: int

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise AlgebraError("parity of %s must be 0 or 1" % (self.name,))
        if self.degree <= 0:
            raise AlgebraError("degree of %s must be positive" % (self.name,))


class TPoly:
    """Finite Scalar-linear combination of T-monomials over one presentation."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres: "Presentation", terms: dict | None = None):
        self.pres = pres
        self.terms = terms if terms is not None else {}

    def _check(self, other: "TPoly"):
        if other.pres is not self.pres:
            raise AlgebraError("operands belong to different presentations")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.pres is other.pres and self.terms == other.terms

    def __add__(self, other: "TPoly") -> "TPoly":
        self._check(other)
        out = dict(self.terms)
        _add_scaled(out, other)
        return TPoly(self.pres, out)

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __neg__(self) -> "TPoly":
        return TPoly(self.pres, {m: -s for m, s in self.terms.items()})

    def scale(self, s) -> "TPoly":
        s = _multiplier(self.pres.field, s)
        if not s:
            return TPoly(self.pres)
        return TPoly(self.pres, {m: c * s for m, c in self.terms.items()})

    def tensor(self, other: "TPoly") -> "TPoly":
        self._check(other)
        out = {}
        for m1, s1 in self.terms.items():
            for m2, s2 in other.terms.items():
                _add_term(out, m1 + m2, s1 * s2)
        return TPoly(self.pres, out)

    def __str__(self):
        return render_tpoly(self)

    def __repr__(self):
        return "TPoly(%s)" % (self,)


def _add_term(d: dict, mono: TMono, s: Scalar) -> None:
    acc = d.get(mono)
    if acc is None:
        if not s.is_zero:
            d[mono] = s
    else:
        acc = acc + s
        if acc.is_zero:
            del d[mono]
        else:
            d[mono] = acc


def _add_scaled(d: dict, x: TPoly, s=None) -> None:
    """Add s*x (x itself when s is None) into the term dict d in place."""
    if s is not None and x.terms:
        s = _multiplier(x.pres.field, s)
    for mono, c in x.terms.items():
        _add_term(d, mono, c if s is None else c * s)


def _multiplier(fld, s):
    """s itself for an int or Fraction, which a Scalar multiplies on
    Python ints; else s as a Scalar of fld (ScalarError for any other
    type)."""
    return s if isinstance(s, (int, Fraction)) else fld.convert(s)


def _coeff_list(pres: "Presentation", acc: list) -> list[TPoly]:
    """Coefficient list from per-power term dicts, trailing zeros trimmed."""
    out = [TPoly(pres, d) for d in acc]
    while out and out[-1].is_zero:
        out.pop()
    return out


def skew_coeffs(coeffs: list, sign: int = 1) -> list[TPoly]:
    """lambda -> -lambda - T on a coefficient list, times sign:
    lambda^n X -> sum_k C(n,k) (-1)^n lambda^{n-k} T^k X.  An involution."""
    if not coeffs:
        return []
    acc = [{} for _ in coeffs]
    for n, X in enumerate(coeffs):
        for k in range(n + 1):
            _add_scaled(acc[n - k], apply_T(X, k), comb(n, k) * (-1) ** n * sign)
    return _coeff_list(coeffs[0].pres, acc)


def apply_T(x: TPoly, k: int = 1) -> TPoly:
    """k-fold derivation T, Leibniz over tensor factors.  T(1) = 0."""
    for _ in range(k):
        if not x.terms:
            break
        out = {}
        for mono, s in x.terms.items():
            for p, rg in enumerate(mono):
                lifted = mono[:p] + (RGen(rg.gen, rg.n + 1),) + mono[p + 1:]
                _add_term(out, lifted, s)
        x = TPoly(x.pres, out)
    return x


class Presentation:
    """Generator declarations plus a lambda-bracket table.

    `generators` are (name, parity, degree, weight) tuples, weight None
    where undeclared.  Frozen once an Engine is built on it: engines cache
    against object identity, so set_bracket raises from then on.
    """

    def __init__(self, generators, params=(), unknowns=(), name=None):
        self.name = name
        self.params = tuple(params)
        self.unknowns = tuple(unknowns)
        self.generators = decls = tuple(
            GeneratorDecl(nm, parity, Fraction(degree),
                          None if weight is None else Fraction(weight), i)
            for i, (nm, parity, degree, weight) in enumerate(generators))
        for nm in self.params + self.unknowns + tuple(g.name for g in decls):
            if nm in _RESERVED:
                raise AlgebraError("%r is reserved" % (nm,))
            if not is_name(nm):
                raise AlgebraError("%r is not a name" % (nm,))
        if not (name is None or is_name(name)):
            raise AlgebraError("%r is not a name" % (name,))
        overlap = set(self.params) & set(self.unknowns)
        if overlap:
            raise AlgebraError("params and unknowns overlap: %s" % (sorted(overlap),))
        self.field = scalar_field(self.params + self.unknowns)
        # generator metadata as ints for the hot checks: degrees in units of
        # 1/degree_unit, weights (None if undeclared) in units of
        # 1/weight_unit, each the lcm of the denominators; parity bits; ranks
        # in (degree, index) order
        self.degree_unit = lcm(*(g.degree.denominator for g in decls))
        self.gen_units = tuple(int(g.degree * self.degree_unit) for g in decls)
        self.weight_unit = lcm(*(g.weight.denominator for g in decls
                                 if g.weight is not None))
        self.gen_weights = tuple(
            None if g.weight is None else int(g.weight * self.weight_unit)
            for g in decls)
        self.gen_parity = tuple(g.parity for g in decls)
        rank = [0] * len(decls)
        for r, g in enumerate(sorted(decls, key=lambda g: (g.degree, g.index))):
            rank[g.index] = r
        self.gen_rank = tuple(rank)
        self.gen_index = {g.name: g.index for g in self.generators}
        if len(self.gen_index) != len(self.generators):
            raise AlgebraError("duplicate generator names")
        for g in self.generators:
            if g.name in self.field.params:
                raise AlgebraError("generator %r shadows a parameter" % (g.name,))
        self._table: dict[tuple[int, int], list[TPoly]] = {}
        self._pair_cache: dict[tuple[int, int], list[TPoly]] = {}
        self.frozen = False

    def __repr__(self):
        return "Presentation(%s)" % (self.name or ",".join(g.name for g in self.generators))

    @property
    def weights_declared(self) -> bool:
        return None not in self.gen_weights

    # -- element constructors ------------------------------------------------

    def rgen(self, name: str, n: int = 0) -> RGen:
        try:
            return RGen(self.gen_index[name], n)
        except KeyError:
            raise AlgebraError("unknown generator %r" % (name,)) from None

    def mono(self, *factors) -> TMono:
        out = []
        for f in factors:
            if isinstance(f, RGen):
                out.append(f)
            elif isinstance(f, str):
                out.append(self.rgen(f))
            else:
                nm, n = f
                out.append(self.rgen(nm, n))
        return tuple(out)

    def poly(self, terms) -> TPoly:
        """TPoly from {mono: coeff}; coeffs may be int/Fraction/Scalar."""
        out = {}
        for mono, c in terms.items():
            _add_term(out, mono, self.field.convert(c))
        return TPoly(self, out)

    def gen(self, name: str, n: int = 0) -> TPoly:
        return TPoly(self, {(self.rgen(name, n),): self.field.one})

    def unit(self) -> TPoly:
        return TPoly(self, {(): self.field.one})

    def zero(self) -> TPoly:
        return TPoly(self)

    # -- metadata ------------------------------------------------------------

    def rgen_key(self, rg: RGen):
        """Total order on T^n-generators: by degree, then declaration, then
        n; the first two as the generator's rank."""
        return (self.gen_rank[rg[0]], rg[1])

    def mono_units(self, mono: TMono) -> int:
        """The degree of mono in units of 1/degree_unit."""
        units = self.gen_units
        return sum([units[g] for g, _ in mono])

    def mono_degree(self, mono: TMono) -> Fraction:
        return Fraction(self.mono_units(mono), self.degree_unit)

    def mono_parity(self, mono: TMono) -> int:
        bits = self.gen_parity
        return sum([bits[g] for g, _ in mono]) & 1

    def mono_weight(self, mono: TMono) -> Fraction:
        unit, units = self.weight_unit, self.gen_weights
        total = 0
        for g, n in mono:
            if units[g] is None:
                raise AlgebraError("generator %s has no conformal weight"
                                   % (self.generators[g].name,))
            total += units[g] + n * unit
        return Fraction(total, unit)

    def parity_sign(self, a: TMono, b: TMono) -> int:
        """Koszul sign (-1)^{p(a)p(b)}."""
        return -1 if (self.mono_parity(a) and self.mono_parity(b)) else 1

    # -- bracket table -------------------------------------------------------

    def set_bracket(self, a: str, b: str, coeffs: list[TPoly]) -> None:
        """Install [a_lambda b] as a coefficient list, index = lambda-power.

        Engines cache against the table, so it is an error once an Engine
        has been built on this presentation."""
        if self.frozen:
            raise AlgebraError("cannot change the bracket table of %r: an "
                               "Engine has been built on it" % (self,))
        i, j = self.rgen(a).gen, self.rgen(b).gen
        if not isinstance(coeffs, list) or not all(
                isinstance(x, TPoly) and x.pres is self for x in coeffs):
            raise AlgebraError("bracket coefficients must be a list of "
                               "TPolys over this presentation")
        lst = list(coeffs)
        while lst and lst[-1].is_zero:
            lst.pop()
        self._table[(i, j)] = lst
        self._pair_cache.clear()

    def given_pairs(self):
        return sorted(self._table)

    def pair_coeffs(self, i: int, j: int) -> list[TPoly]:
        """[a_i lambda a_j] as a coefficient list, deriving the missing
        orientation through skewsymmetry; absent pairs are zero."""
        key = (i, j)
        out = self._pair_cache.get(key)
        if out is not None:
            return out
        if key in self._table:
            out = self._table[key]
        elif (j, i) in self._table:
            sign = -self.parity_sign(((RGen(i, 0),)), ((RGen(j, 0),)))
            out = skew_coeffs(self._table[(j, i)], sign)
        else:
            out = []
        self._pair_cache[key] = out
        return out

    def bracket_r(self, x: RGen, y: RGen) -> list[TPoly]:
        """[T^m a_lambda T^n b] by sesquilinearity from the stored table:
        (-lambda)^m (lambda + T)^n [a_lambda b], as a coefficient list."""
        base = self.pair_coeffs(x.gen, y.gen)
        acc = [{} for _ in range(len(base) + x.n + y.n)]
        sgn = (-1) ** x.n
        for k, X in enumerate(base):
            for jj in range(y.n + 1):
                _add_scaled(acc[k + jj + x.n], apply_T(X, y.n - jj),
                            comb(y.n, jj) * sgn)
        return _coeff_list(self, acc)

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """The table rules, checked once on every stored bracket
        [a_i lambda a_j]: each monomial of the lambda^k coefficient has
        degree < deg a_i + deg a_j and parity p_i + p_j, and, when every
        weight is declared, weight w_i + w_j - k - 1; with unknowns
        declared, each coefficient is affine in them with none in a
        denominator.

        Returns human-readable violation strings, per k the degree and
        parity ones first, then the weight ones, and the unknown ones after
        all of those; empty means well formed.  The opposite orientations
        need no check: skewsymmetry, lambda -> -lambda - T, keeps degree
        and parity and maps the weight rule onto itself.
        """
        out, linear = [], []
        for (i, j), coeffs in sorted(self._table.items()):
            gi, gj = self.generators[i], self.generators[j]
            label = "[%s,%s]" % (gi.name, gj.name)
            bound = gi.degree + gj.degree
            want_parity = (gi.parity + gj.parity) & 1
            for k, X in enumerate(coeffs):
                where = "%s: lambda^%d" % (label, k)
                want_w = (gi.weight + gj.weight - k - 1
                          if self.weights_declared else None)
                graded, weighed = [], []
                for mono, s in X.terms.items():
                    m = render_tmono(self, mono)
                    d = self.mono_degree(mono)
                    if not d < bound:
                        graded.append("%s term %s has degree %s, needs < %s"
                                      % (where, m, d, bound))
                    p = self.mono_parity(mono)
                    if p != want_parity:
                        graded.append("%s term %s has parity %s, expected %s"
                                      % (where, m, p, want_parity))
                    if want_w is not None:
                        w = self.mono_weight(mono)
                        if w != want_w:
                            weighed.append(
                                "%s term %s has weight %s, expected %s"
                                % (where, m, w, want_w))
                    if self.unknowns:
                        nonaffine, in_den = affine_defects(s, self.unknowns)
                        for bad, what in (
                                (nonaffine, "is not affine in the unknowns"),
                                (in_den, "has an unknown in its denominator")):
                            if bad:
                                linear.append("%s coefficient of %s %s"
                                              % (where, m, what))
                out += graded + weighed
        return out + linear


# -- rendering ---------------------------------------------------------------

def render_rgen(pres: Presentation, rg: RGen) -> str:
    nm = pres.generators[rg.gen].name
    if rg.n == 0:
        return nm
    if rg.n == 1:
        return "T " + nm
    return "T^%d %s" % (rg.n, nm)


def render_tmono(pres: Presentation, mono: TMono) -> str:
    if not mono:
        return "1"
    return ":%s:" % " ".join(render_rgen(pres, rg) for rg in mono)


def mono_sort_key(pres: Presentation, mono: TMono):
    return (len(mono), tuple(pres.rgen_key(rg) for rg in mono))


def scalar_prefix(s: Scalar):
    """Split a scalar coefficient into (sign, text or None for |coeff| 1)."""
    r = str(s)
    neg = r.startswith("-")
    if neg:
        # not r[1:]: a polynomial's sign belongs to its leading term only
        r = str(-s)
    if r == "1":
        return neg, None
    if " " in r:
        r = "(%s)" % r
    return neg, r


def render_terms(pres: Presentation, blocks) -> str:
    """The signed sum of coeff*vpart*monomial over (vpart, TPoly) blocks,
    each block's monomials in mono_sort_key order; "0" when empty."""
    parts = []
    for vpart, X in blocks:
        for mono in sorted(X.terms, key=lambda m: mono_sort_key(pres, m)):
            neg, coeff = scalar_prefix(X.terms[mono])
            if parts:
                parts.append(" - " if neg else " + ")
            elif neg:
                parts.append("-")
            parts.append("*".join(
                x for x in (coeff, vpart, render_tmono(pres, mono)) if x))
    return "".join(parts) or "0"


def render_tpoly(x: TPoly) -> str:
    return render_terms(x.pres, (("", x),))
