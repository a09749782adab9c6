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

Only constant by constant goes through sympy's own operators, which
reach the canonical form with `cancel`, a polynomial gcd.  Every other
sum, difference, product and quotient keeps the denominator factored
over Q (Scalar._den, filled in by sympy's factor_list once for a
denominator that enters from outside this arithmetic: parsing, a pin,
affine_split, a nullspace pivot) and carries the factors forward.  For
canonical operands, a common factor of the new numerator and denominator
is one of those factors, so trial division by them, then by the integer
contents, gives the canonical form with no gcd.  A product with ±1 is
the other operand or its negation.  A quotient is a product with the
inverse, whose denominator is the divisor's numerator, factored there.
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
        # ±1 are cached by identity: _product and _negate test for them
        # with `is`
        one = self._field.one
        self._one, self._minus_one = one, -one
        self.zero = Scalar(self, self._field.zero, ())
        self.one = Scalar(self, one, ())
        self.minus_one = Scalar(self, self._minus_one, ())
        self._ints: dict[int, Scalar] = {1: self.one, -1: self.minus_one}

    def __repr__(self):
        return "ScalarField(%s)" % (", ".join(self.params) or "Q")

    def param(self, name: str) -> "Scalar":
        try:
            return Scalar(self, self._gens[name])
        except KeyError:
            raise ScalarError("unknown parameter %r" % (name,)) from None

    def _coerce(self, x):
        """x as a Scalar of this field, for an int, Fraction or Scalar of
        this field; None for any other type."""
        if isinstance(x, Scalar):
            if x.field is not self:
                raise ScalarError("Scalar from a different field")
            return x
        if isinstance(x, int):
            # ints must become ground elements up front: sympy's zero fast
            # paths would otherwise leak bare ints into later arithmetic
            s = self._ints.get(x)
            if s is None:
                s = Scalar(self, self._field.ground_new(QQ(x)), ())
                if -64 <= x <= 64:
                    self._ints[x] = s
            return s
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return self._coerce(x.numerator)
            return Scalar(self, self._field.ground_new(
                QQ(x.numerator, x.denominator)), ())
        return None

    def convert(self, x) -> "Scalar":
        s = self._coerce(x)
        if s is None:
            raise ScalarError("cannot convert %r to a Scalar" % (x,))
        return s


class Scalar:
    """An element of a ScalarField, kept in reduced canonical form."""

    __slots__ = ("field", "raw", "_den")

    def __init__(self, fld: ScalarField, raw, den=None):
        self.field = fld
        self.raw = raw
        self._den = den  # raw.denom factored (see _factors), or None

    def __bool__(self):
        return bool(self.raw)

    @property
    def is_zero(self) -> bool:
        return not self.raw

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.raw == other.raw
        if isinstance(other, (int, Fraction)):
            return self.raw == self.field._coerce(other).raw
        return NotImplemented

    def __hash__(self):
        return hash(self.raw)

    def __add__(self, other):
        y = self.field._coerce(other)
        return NotImplemented if y is None else _sum(self, y, 1)

    __radd__ = __add__

    def __sub__(self, other):
        y = self.field._coerce(other)
        return NotImplemented if y is None else _sum(self, y, -1)

    def __rsub__(self, other):
        y = self.field._coerce(other)
        return NotImplemented if y is None else _sum(y, self, -1)

    def __neg__(self):
        return _negate(self)

    def __mul__(self, other):
        y = self.field._coerce(other)
        return NotImplemented if y is None else _product(self, y)

    __rmul__ = __mul__

    def __truediv__(self, other):
        y = self.field._coerce(other)
        return NotImplemented if y is None else _quotient(self, y)

    def __rtruediv__(self, other):
        y = self.field._coerce(other)
        return NotImplemented if y is None else _quotient(y, self)

    def __pow__(self, n: int):
        if n < 0:
            return _quotient(self.field.one, self) ** -n
        if not n:
            return self.field.one
        # sympy's square() caches a hash before it fills the square in:
        # the copies hash afresh
        raw, den = self.raw, self._den
        return Scalar(self.field, self.field._field.raw_new(
            (raw.numer ** n).copy(), (raw.denom ** n).copy()),
            den and tuple((f, e * n) for f, e in den))

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


# -- arithmetic by trial division ---------------------------------------------

def _is_constant(a) -> bool:
    return a.numer.is_ground and a.denom.is_ground


def _factors(x: Scalar) -> tuple:
    """x's denominator as ((f, e), ...): its integer content times the
    product of the f^e, each f irreducible, primitive over Z, with a
    positive leading coefficient."""
    if x._den is None:
        d = x.raw.denom
        x._den = () if d.is_ground else _factor(d)
    return x._den


def _factor(poly) -> tuple:
    out = []
    for f, e in poly.factor_list()[1]:
        _, f = f.clear_denoms()
        g = _content(f) * (1 if f.LC > 0 else -1)
        # a fresh element: its cached hash is its own
        out.append((poly.ring.from_dict({m: c / g for m, c in f.items()}), e))
    return tuple(out)


def _content(poly) -> int:
    """The gcd of the coefficients of poly, which are integers."""
    return gcd(*[c.numerator for c in poly.values()])


def _exquo(p, f):
    """p / f if f divides p, else None, for p and f with integer
    coefficients and p / f with integer coefficients if any (f primitive,
    or a known divisor).  A new element: sympy's `div` can return one with
    a stale cached hash."""
    ring = p.ring
    lm = f.leading_expv()
    lc = f[lm].numerator
    rest = [(m, c.numerator) for m, c in f.items() if m != lm]
    r = {m: c.numerator for m, c in p.items()}
    q = []
    while r:
        m = max(r, key=ring.order)
        qm = ring.monomial_div(m, lm)
        c, rem = divmod(r.pop(m), lc)
        if qm is None or rem:
            return None
        q.append((qm, ring.domain.dtype(c)))
        for fm, fc in rest:
            k = ring.monomial_mul(qm, fm)
            v = r.get(k, 0) - c * fc
            if v:
                r[k] = v
            else:
                del r[k]
    return p.new(q)


def _strip(num, den, facs, upto):
    """Divide num and den by each (f, e) of upto as often as f divides num,
    at most e times; facs, den's factors, follow."""
    left = dict(facs)
    for f, e in upto:
        for _ in range(e):
            q = _exquo(num, f)
            if q is None:
                break
            num, den = q, _exquo(den, f)
            left[f] -= 1
    return num, den, tuple((f, e) for f, e in left.items() if e)


def _negate(x: Scalar) -> Scalar:
    fld = x.field
    if x.raw is fld._one:
        return fld.minus_one
    if x.raw is fld._minus_one:
        return fld.one
    return Scalar(fld, -x.raw, x._den)


def _sum(x: Scalar, y: Scalar, sign: int) -> Scalar:
    """x + y, or x - y for sign -1, over the lcm of the denominators.  For
    canonical a/b and c/d, where f's exponents in b and d differ, the new
    numerator is a or c times factors prime to f, modulo f: only an f with
    equal exponents can cancel."""
    fld = x.field
    a, b = x.raw, y.raw
    if not b:
        return x
    if not a:
        return y if sign > 0 else _negate(y)
    if _is_constant(a) and _is_constant(b):
        return Scalar(fld, a + b if sign > 0 else a - b)
    fa, fb = _factors(x), _factors(y)
    an, ad, bn, bd = a.numer, a.denom, b.numer, b.denom
    if sign < 0:
        bn = -bn
    if ad == bd:
        return _reduced(fld, an + bn, ad, fa, fa)
    g, facs, common = None, dict(fb), []  # g: the polynomial gcd of ad, bd
    for f, e in fa:
        e2 = facs.get(f, 0)
        if e2:
            h = f ** min(e, e2)
            g = h if g is None else g * h
        if e == e2:
            common.append((f, e))
        facs[f] = max(e, e2)
    ma, mb = (bd, ad) if g is None else (_exquo(bd, g), _exquo(ad, g))
    return _reduced(fld, an * ma + bn * mb, ad * ma, tuple(facs.items()),
                    common)


def _product(x: Scalar, y: Scalar) -> Scalar:
    """x * y.  For canonical a/b and c/d, a common factor of ac and bd
    divides a and d, or c and b: trial division finds it."""
    fld = x.field
    a, b = x.raw, y.raw
    # a product with ±1 is the other operand or its negation
    if b is fld._one:
        return x
    if b is fld._minus_one:
        return _negate(x)
    if a is fld._one:
        return y
    if a is fld._minus_one:
        return _negate(y)
    if not a or not b:
        return fld.zero
    if _is_constant(a) and _is_constant(b):
        return Scalar(fld, a * b)
    fa, fb = _factors(x), _factors(y)
    an, ad, bn, bd = a.numer, a.denom, b.numer, b.denom
    if fb and not an.is_ground:
        an, bd, fb = _strip(an, bd, fb, fb)
    if fa and not bn.is_ground:
        bn, ad, fa = _strip(bn, ad, fa, fa)
    facs = fa or fb
    if fa and fb:
        facs = dict(fa)
        for f, e in fb:
            facs[f] = facs.get(f, 0) + e
        facs = tuple(facs.items())
    return _reduced(fld, an * bn, ad * bd, facs, ())


def _quotient(x: Scalar, y: Scalar) -> Scalar:
    """x / y: x times the inverse of y, whose denominator is factored."""
    fld = x.field
    a, b = x.raw, y.raw
    if not b:
        raise ScalarError("division by zero")
    if _is_constant(a) and _is_constant(b):
        return Scalar(fld, a / b)
    num, den = (b.denom, b.numer) if b.numer.LC > 0 else (-b.denom, -b.numer)
    return _product(x, Scalar(fld, fld._field.raw_new(num, den),
                              () if den.is_ground else _factor(den)))


def _reduced(fld, num, den, facs, common) -> Scalar:
    """num/den in canonical form, for num and den with integer
    coefficients, den with a positive leading coefficient and factors
    facs, and every common factor among `common` ((f, e), ...).  Past
    those, only the gcd of the integer contents is left to divide out."""
    if not num:
        return fld.zero
    if common:
        num, den, facs = _strip(num, den, facs, common)
    g = gcd(_content(den), *[c.numerator for c in num.values()])
    if g != 1:
        q = fld._field.domain.dtype
        num, den = (p.new([(m, q(c.numerator // g)) for m, c in p.items()])
                    for p in (num, den))
    return Scalar(fld, fld._field.raw_new(num, den), facs)


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
    def drop(poly):
        return ring.from_dict({tuple(exps[i] for i in keep): coeff
                               for exps, coeff in poly.terms()})

    # no unknown is in s's denominator, so its factors stay irreducible,
    # primitive and positive-leading over the other parameters
    den, facs = drop(s.raw.denom), tuple((drop(f), e) for f, e in _factors(s))
    c0, *cus = [_reduced(target, ring.from_dict(d), den, facs, facs)
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
        # one inverse per pivot: its numerator is factored once
        inv = fld.one / rows[r][col]
        rows[r] = [e * inv for e in rows[r]]
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
        inv = fld.one / next(c for c in v if not c.is_zero)
        basis.append([c * inv for c in v])
    return basis
