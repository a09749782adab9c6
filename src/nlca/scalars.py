"""Exact coefficient arithmetic in Q(p1, ..., pk).

Every coefficient appearing anywhere in the engine is a Scalar: a rational
function of the declared parameters (and, for ansatz presentations, the
declared unknowns) with exact rational coefficients.  Scalars from different
fields never mix; arithmetic between them raises ScalarError.

The representation is backed by sympy's sparse rational function fields.
Every element is kept as N/D in one canonical form: N and D have integer
coefficients, are coprime over Q[params] and have coprime integer
contents, and the leading coefficient of D in graded-lex order is
positive.  So structural equality of canonical forms is plain equality of
the wrapped elements.  The representation stays private to this module;
text is read by frontend.parse_scalar, in the grammar of the file format.

sympy reaches the canonical form through `cancel`, a polynomial gcd.  Sums
and products skip it where the gcd is known to be trivial: a product with
±1; a nonzero constant with a non-constant operand; two polynomials (both
denominators constant).  There only the integer contents are divided out.
Differences are sums with the negation, which never cancels.  Constant by
constant, rational function with rational function, division and powers
still call `cancel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction
from math import gcd

from sympy import QQ
from sympy.polys.fields import field as _sympy_field
from sympy.polys.orderings import grlex


class ScalarError(Exception):
    pass


_FIELDS: dict[tuple[str, ...], "ScalarField"] = {}


def is_name(text: str) -> bool:
    """The file format's name: a letter or _, then letters, digits or _."""
    return (text[:1].isalpha() or text[:1] == "_") and all(
        ch.isalnum() or ch == "_" for ch in text)


def scalar_field(params=()) -> "ScalarField":
    """Return the (interned) field Q(params).  Order of params matters."""
    key = tuple(params)
    try:
        return _FIELDS[key]
    except KeyError:
        pass
    fld = ScalarField(key)
    _FIELDS[key] = fld
    return fld


class ScalarField:
    """The field Q(p1, ..., pk).  Use scalar_field() to construct."""

    def __init__(self, params: tuple[str, ...]):
        for p in params:
            if not is_name(p):
                raise ScalarError("bad parameter name %r" % (p,))
        if len(set(params)) != len(params):
            raise ScalarError("duplicate parameter names in %r" % (params,))
        self.params = params
        ret = _sympy_field(list(params), QQ, order=grlex)
        self._field = ret[0]
        self._gens = dict(zip(params, ret[1:]))
        # ±1 are cached by identity: Scalar.__mul__ and __neg__ test for
        # them with `is` and skip sympy's cancel
        one = self._field.one
        self._one, self._minus_one = one, -one
        self._ints: dict[int, object] = {1: one, -1: self._minus_one}
        self.zero = Scalar(self, self._field.zero)
        self.one = Scalar(self, one)
        self.minus_one = Scalar(self, self._minus_one)

    def __repr__(self):
        return "ScalarField(%s)" % (", ".join(self.params) or "Q")

    def param(self, name: str) -> "Scalar":
        try:
            return Scalar(self, self._gens[name])
        except KeyError:
            raise ScalarError("unknown parameter %r" % (name,)) from None

    def _coerce_raw(self, x):
        """The backing element for an int, Fraction or Scalar of this
        field; None for any other type."""
        if isinstance(x, Scalar):
            if x.field is not self:
                raise ScalarError("Scalar from a different field")
            return x.raw
        if isinstance(x, int):
            # ints must become ground elements up front: sympy's zero fast
            # paths would otherwise leak bare ints into later arithmetic
            r = self._ints.get(x)
            if r is None:
                r = self._field.ground_new(QQ(x))
                if -64 <= x <= 64:
                    self._ints[x] = r
            return r
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return self._coerce_raw(x.numerator)
            return self._field.ground_new(QQ(x.numerator, x.denominator))
        return None

    def convert(self, x) -> "Scalar":
        r = self._coerce_raw(x)
        if r is None:
            raise ScalarError("cannot convert %r to a Scalar" % (x,))
        return x if isinstance(x, Scalar) else Scalar(self, r)


class Scalar:
    """An element of a ScalarField, kept in reduced canonical form."""

    __slots__ = ("field", "raw")

    def __init__(self, fld: ScalarField, raw):
        self.field = fld
        self.raw = raw

    def __bool__(self):
        return bool(self.raw)

    @property
    def is_zero(self) -> bool:
        return not self.raw

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.raw == other.raw
        if isinstance(other, (int, Fraction)):
            return self.raw == self.field._coerce_raw(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.raw)

    def __add__(self, other):
        fld = self.field
        r = fld._coerce_raw(other)
        if r is None:
            return NotImplemented
        return Scalar(fld, _sum(fld, self.raw, r))

    __radd__ = __add__

    def __sub__(self, other):
        fld = self.field
        r = fld._coerce_raw(other)
        if r is None:
            return NotImplemented
        return Scalar(fld, _sum(fld, self.raw, r, -1))

    def __rsub__(self, other):
        fld = self.field
        r = fld._coerce_raw(other)
        if r is None:
            return NotImplemented
        return Scalar(fld, _sum(fld, r, self.raw, -1))

    def __neg__(self):
        fld = self.field
        if self.raw is fld._one:
            return fld.minus_one
        if self.raw is fld._minus_one:
            return fld.one
        return Scalar(fld, -self.raw)

    def __mul__(self, other):
        # a product with ±1 is the other operand or its negation, which
        # is already reduced: neither needs sympy's cancel
        fld = self.field
        r = fld._coerce_raw(other)
        if r is None:
            return NotImplemented
        a = self.raw
        if r is fld._one:
            return self
        if r is fld._minus_one:
            return -self
        if a is fld._one:
            return Scalar(fld, r)
        if a is fld._minus_one:
            return Scalar(fld, -r)
        if _gcd_free(a, r):
            return Scalar(fld, _lowest_terms(fld, a.numer * r.numer,
                                             a.denom * r.denom))
        return Scalar(fld, a * r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self.field._coerce_raw(other)
        if r is None:
            return NotImplemented
        try:
            return Scalar(self.field, self.raw / r)
        except ZeroDivisionError:
            raise ScalarError("division by zero") from None

    def __rtruediv__(self, other):
        r = self.field._coerce_raw(other)
        if r is None:
            return NotImplemented
        try:
            return Scalar(self.field, r / self.raw)
        except ZeroDivisionError:
            raise ScalarError("division by zero") from None

    def __pow__(self, n: int):
        try:
            return Scalar(self.field, self.raw ** n)
        except ZeroDivisionError:
            raise ScalarError("division by zero") from None

    def __str__(self):
        return _render(self.field, self.raw)

    def __repr__(self):
        return "Scalar(%s)" % (self,)

    def evaluate(self, assignment: dict[str, Fraction]) -> Fraction:
        """Evaluate at rational parameter values.  All params must be given."""
        fld = self.field
        pairs = []
        for i, p in enumerate(fld.params):
            if p not in assignment:
                raise ScalarError("no value for parameter %r" % (p,))
            v = Fraction(assignment[p])
            pairs.append((fld._field.ring.gens[i], QQ(v.numerator, v.denominator)))
        num = self.raw.numer.evaluate(pairs) if pairs else self.raw.numer.coeff(1)
        den = self.raw.denom.evaluate(pairs) if pairs else self.raw.denom.coeff(1)
        nf = Fraction(int(num.numerator), int(num.denominator))
        df = Fraction(int(den.numerator), int(den.denominator))
        if df == 0:
            raise ScalarError("denominator vanishes at the given point")
        return nf / df

    def complexity(self) -> int:
        """Number of terms in the numerator plus the denominator."""
        return len(self.raw.numer) + len(self.raw.denom)


# -- sums and products without cancel ----------------------------------------

def _gcd_free(a, b) -> bool:
    """Whether the numerator and denominator that a + b and a * b get from
    the plain formulas are coprime over Q[params]: exactly one operand is a
    constant, or both are polynomials and not both constants.  (A zero
    constant gives a zero numerator, which _lowest_terms maps to zero.)"""
    if a.denom.is_ground:
        if b.denom.is_ground:
            return not (a.numer.is_ground and b.numer.is_ground)
        return a.numer.is_ground
    return b.denom.is_ground and b.numer.is_ground


def _sum(fld, a, b, sign=1):
    """The backing element of a + b, or of a - b for sign -1."""
    if not b:
        return a
    if not a:
        return b if sign > 0 else -b
    if not _gcd_free(a, b):
        return a + b if sign > 0 else a - b
    bn = b.numer if sign > 0 else -b.numer
    if a.denom == b.denom:
        return _lowest_terms(fld, a.numer + bn, a.denom)
    return _lowest_terms(fld, a.numer * b.denom + bn * a.denom,
                         a.denom * b.denom)


def _lowest_terms(fld, num, den):
    """num/den in canonical form, for num and den with integer
    coefficients, coprime over Q[params], den with a positive leading
    coefficient: only the gcd of their integer contents is left to divide
    out."""
    if not num:
        return fld._field.zero
    g = gcd(*[c.numerator for c in den.values()],
            *[c.numerator for c in num.values()])
    if g != 1:
        num, den = num.quo_ground(g), den.quo_ground(g)
    return fld._field.raw_new(num, den)


# -- rendering ---------------------------------------------------------------

# str() and int() refuse more than sys.get_int_max_str_digits() digits (4300
# by default, never below 640); _fmt_int and _read_int convert longer ones
# exactly, in chunks this long.
_CHUNK_DIGITS = 500
_CHUNK = 10 ** _CHUNK_DIGITS


def _read_int(text: str) -> int:
    """int(text) for a digit string of any length."""
    head = len(text) % _CHUNK_DIGITS or _CHUNK_DIGITS
    n = int(text[:head])
    for i in range(head, len(text), _CHUNK_DIGITS):
        n = n * _CHUNK + int(text[i:i + _CHUNK_DIGITS])
    return n


def _fmt_int(n: int) -> str:
    if -_CHUNK < n < _CHUNK:
        return str(n)
    m, chunks = abs(n), []
    while m >= _CHUNK:
        m, low = divmod(m, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(m) if n > 0 else "-%d" % m)
    return "".join(reversed(chunks))


def _fmt_q(c) -> str:
    n, d = c.numerator, c.denominator
    return _fmt_int(n) if d == 1 else "%s/%s" % (_fmt_int(n), _fmt_int(d))


def _fmt_poly(poly, names) -> str:
    terms = list(poly.terms())
    if not terms:
        return "0"
    out = []
    for exps, coeff in terms:
        neg = coeff < 0
        ac = -coeff if neg else coeff
        mono = "*".join(
            nm if e == 1 else "%s^%d" % (nm, e)
            for nm, e in zip(names, exps) if e)
        if not mono:
            body = _fmt_q(ac)
        elif ac == 1:
            body = mono
        else:
            body = "%s*%s" % (_fmt_q(ac), mono)
        if not out:
            out.append("-" + body if neg else body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


def _render(fld: ScalarField, raw) -> str:
    num, den = raw.numer, raw.denom
    ns = _fmt_poly(num, fld.params)
    if den == 1:
        return ns
    if len(num.terms()) > 1:
        ns = "(%s)" % ns
    dterms = den.terms()
    if len(dterms) == 1 and not any(dterms[0][0]):
        ds = _fmt_q(dterms[0][1])
    else:
        ds = "(%s)" % _fmt_poly(den, fld.params)
    return "%s/%s" % (ns, ds)


def affine_defects(s: Scalar, unknowns) -> tuple[bool, bool]:
    """(not affine, unknown in a denominator) for s, the unknowns jointly."""
    fld = s.field
    idx = [fld.params.index(u) for u in unknowns]
    nonaffine = any(sum(exps[i] for i in idx) > 1 for exps in s.raw.numer)
    in_den = any(s.raw.denom.degree(fld._field.ring.gens[i]) > 0 for i in idx)
    return nonaffine, in_den


def affine_split(s: Scalar, unknowns) -> tuple[Scalar, list[Scalar]]:
    """Write s = c0 + sum_u c_u * u over the listed parameters.

    Requires s to be affine in the unknowns taken jointly, with none of
    them in the denominator; raises ScalarError otherwise.  The returned
    Scalars live in scalar_field() of the other parameters of s.field,
    in their order there.
    """
    nonaffine, in_den = affine_defects(s, unknowns)
    if in_den:
        raise ScalarError("unknown in a denominator: %s" % (s,))
    if nonaffine:
        raise ScalarError("not affine in the unknowns: %s" % (s,))
    params = s.field.params
    idx = [params.index(u) for u in unknowns]
    keep = [i for i in range(len(params)) if i not in idx]
    target = scalar_field(params[i] for i in keep)
    ring = target._field.ring
    # an affine numerator term holds at most one unknown: file it under
    # that unknown (slot 0 is c0) with the unknown dropped
    nums = [{} for _ in range(len(idx) + 1)]
    for exps, coeff in s.raw.numer.terms():
        slot = next((k + 1 for k, i in enumerate(idx) if exps[i]), 0)
        nums[slot][tuple(exps[i] for i in keep)] = coeff
    den = ring.from_dict({tuple(exps[i] for i in keep): coeff
                          for exps, coeff in s.raw.denom.terms()})
    c0, *cus = [Scalar(target, target._field.new(ring.from_dict(d), den))
                for d in nums]
    return c0, cus


# -- linear systems ----------------------------------------------------------

@dataclass
class LinearSystem:
    """Rows (coeffs, rhs) of linear equations sum(coeffs[i]*u[i]) = rhs."""

    field: ScalarField
    unknowns: tuple[str, ...]
    rows: list = dfield(default_factory=list)

    def add_row(self, coeffs, rhs) -> None:
        coeffs = tuple(self.field.convert(c) for c in coeffs)
        rhs = self.field.convert(rhs)
        if len(coeffs) != len(self.unknowns):
            raise ScalarError("row length %d != %d unknowns"
                              % (len(coeffs), len(self.unknowns)))
        if all(c.is_zero for c in coeffs) and rhs.is_zero:
            return
        self.rows.append((coeffs, rhs))

    def is_homogeneous(self) -> bool:
        return all(rhs.is_zero for _, rhs in self.rows)

    def sort_rows(self) -> None:
        keyed = {}
        for coeffs, rhs in self.rows:
            k = tuple(str(c) for c in coeffs) + (str(rhs),)
            keyed.setdefault(k, (coeffs, rhs))
        self.rows = [keyed[k] for k in sorted(keyed)]


def nullspace(system: LinearSystem) -> list[list[Scalar]]:
    """Basis of the kernel of the coefficient matrix (rhs ignored).

    Gaussian elimination over the field; the pivot in each column is the
    candidate entry with the fewest monomials.  Each basis vector is scaled
    so its first nonzero coordinate is 1.
    """
    fld = system.field
    n = len(system.unknowns)
    rows = [list(coeffs) for coeffs, _ in system.rows]
    pivots = []
    r = 0
    for col in range(n):
        best = None
        for i in range(r, len(rows)):
            e = rows[i][col]
            if not e.is_zero:
                if best is None or e.complexity() < rows[best][col].complexity():
                    best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][col]
        rows[r] = [e / piv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = [fld.zero] * n
        v[free] = fld.one
        for ri, cj in pivots:
            v[cj] = -rows[ri][free]
        first = next(c for c in v if not c.is_zero)
        basis.append([c / first for c in v])
    return basis
