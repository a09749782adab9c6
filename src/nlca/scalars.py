"""Exact coefficient arithmetic in Q(p1, ..., pk).

Every coefficient appearing anywhere in the engine is a Scalar: a rational
function of the declared parameters (and, for ansatz presentations, the
declared unknowns) with exact rational coefficients.  Scalars from different
fields never mix; arithmetic between them raises ScalarError.

Every element is kept as N/D in one canonical form: N and D have integer
coefficients, are coprime over Q[params] and have coprime integer
contents, and the leading coefficient of D in graded-lex order is
positive.  So structural equality of canonical forms is equality of
values.  A constant hashes as the Fraction it equals, so a Scalar hashes
equal to an equal int or Fraction.  The representation stays private to
this module; text is read by frontend.parse_scalar, in the grammar of the
file format.

Every Scalar, a constant included, keeps N and D as dicts {exponent
tuple: int} and its denominator's irreducible factors over Q, each a
hashable int dict with its leading term split off (Scalar._facs).  A
denominator that enters from outside this arithmetic is factored once:
the divisor's numerator in a quotient (so parsing, a pin, a nullspace
pivot), or the denominator of a Scalar built from a sympy element, when
first needed.  Every sum, difference, negation and power, every product
with an int or Fraction, and every product and quotient with a
non-constant operand runs on Python ints and carries the factors forward
(a constant has none).  For canonical operands, a common factor of the
new numerator and denominator is one of those factors, so trial division
by them, then by the integer contents, gives the canonical form with no
gcd.  A product with ±1 is the other operand or its negation.  A quotient
is a product with the inverse, whose denominator is the divisor's
numerator, factored there; a quotient by a constant, another constant
included, is a product with its inverse on Python ints, like a product
with a Fraction.  The constant ints in [-64, 64] are cached Scalars.

sympy is imported on first use, in ScalarField._field, which builds the
field as sympy's sparse rational function field.  Importing nlca loads
none of it, nor does parsing a table that multiplies no two constants
and has no denominator of total degree 2 or more.  Three things still
need it.  Scalar.raw is a view of any Scalar as an element of that
field, built on first read and cached, and Scalar(field, element) wraps
a canonical sympy element (every result of sympy's field arithmetic is
one).  A denominator of total degree 2 or more is factored by sympy's
factor_list; one of total degree 1 is irreducible and is its own factor.
A product of two constant Scalars goes through sympy's operators on
their views, which reach the canonical form with `cancel`, a polynomial
gcd.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction
from functools import cached_property
from math import gcd


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


def _grlex(exps):
    """The graded-lex sort key of an exponent tuple."""
    return sum(exps), exps


def _monomial_ops(k: int):
    """The product and exact quotient (None if not divisible) of exponent
    tuples of length k, generated for k as sympy's MonomialOps does them:
    unpacked with no loop, about three times as fast as a map over the
    pairs."""
    pairs = [("a%d" % i, "b%d" % i) for i in range(k)]
    unpack = " [%s] = A\n [%s] = B\n" % (
        ", ".join(a for a, _ in pairs), ", ".join(b for _, b in pairs))
    src = ("def mul(A, B):\n" + unpack
           + " return (%s)\n" % "".join("%s + %s, " % p for p in pairs)
           + "def div(A, B):\n" + unpack
           + "".join(" if %s < %s: return None\n" % p for p in pairs)
           + " return (%s)\n" % "".join("%s - %s, " % p for p in pairs))
    ns = {}
    exec(src, ns)
    return ns["mul"], ns["div"]


class ScalarField:
    """The field Q(p1, ..., pk).  Use scalar_field() to construct."""

    def __init__(self, params: tuple[str, ...]):
        for p in params:
            if not is_name(p):
                raise ScalarError("bad parameter name %r" % (p,))
        if len(set(params)) != len(params):
            raise ScalarError("duplicate parameter names in %r" % (params,))
        self.params = params
        # exponent tuples: the constant one, product and exact quotient
        # (None if not divisible), and the graded-lex key, which for one
        # parameter is the tuples' own order
        self._zm = (0,) * len(params)
        self._mul, self._div = _monomial_ops(len(params))
        self._key = _grlex if len(params) > 1 else None
        # the cached constants, by value: _product and _negate test for ±1
        # with `is`
        self._ints: dict[int, Scalar] = {}
        self.zero, self.one, self.minus_one = (_const(self, n, 1)
                                               for n in (0, 1, -1))

    def __repr__(self):
        return "ScalarField(%s)" % (", ".join(self.params) or "Q")

    @cached_property
    def _field(self):
        """This field as sympy's rational function field, built on first
        use: the one place that imports sympy."""
        from sympy import QQ
        from sympy.polys.fields import field
        from sympy.polys.orderings import grlex
        return field(list(self.params), QQ, order=grlex)[0]

    def param(self, name: str) -> "Scalar":
        if name not in self.params:
            raise ScalarError("unknown parameter %r" % (name,))
        exps = tuple(int(p == name) for p in self.params)
        return _new(self, {exps: 1}, {self._zm: 1}, ())

    def _coerce(self, x):
        """x as a Scalar of this field, for an int, Fraction or Scalar of
        this field; None for any other type."""
        if isinstance(x, Scalar):
            if x.field is not self:
                raise ScalarError("Scalar from a different field")
            return x
        if isinstance(x, int):
            return _const(self, x, 1)
        if isinstance(x, Fraction):
            return _const(self, x.numerator, x.denominator)
        return None

    def convert(self, x) -> "Scalar":
        s = self._coerce(x)
        if s is None:
            raise ScalarError("cannot convert %r to a Scalar" % (x,))
        return s


class Scalar:
    """An element of a ScalarField, kept in reduced canonical form.

    _num and _den are its numerator and denominator as int dicts, _facs
    its denominator's factors (None until first needed, see _factors) and
    _raw its sympy view (None until .raw is first read)."""

    __slots__ = ("field", "_raw", "_num", "_den", "_facs")

    def __init__(self, fld: ScalarField, raw):
        """The Scalar of `raw`, a canonical element of fld's sympy field."""
        self.field, self._raw, self._facs = fld, raw, None
        self._num, self._den = _int_dict(raw.numer), _int_dict(raw.denom)

    @property
    def raw(self):
        """This Scalar as an element of sympy's rational function field."""
        if self._raw is None:
            # built directly: ring.from_dict converts every coefficient
            f = self.field._field
            poly, q = f.ring.dtype, f.ring.domain.dtype
            self._raw = f.raw_new(
                *(poly({m: q(c) for m, c in p.items()})
                  for p in (self._num, self._den)))
        return self._raw

    def __bool__(self):
        return bool(self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field._coerce(other)
        if isinstance(other, Scalar):
            return (self.field is other.field and self._num == other._num
                    and self._den == other._den)
        return NotImplemented

    def __hash__(self):
        if _is_const(self):
            zm = self.field._zm
            return hash(Fraction(self._num.get(zm, 0), self._den[zm]))
        return hash((frozenset(self._num.items()),
                     frozenset(self._den.items())))

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
        if isinstance(other, (int, Fraction)):
            return _scaled(self, other.numerator, other.denominator)
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
        fld = self.field
        if n < 0:
            return _quotient(fld.one, self) ** -n
        if not n:
            return fld.one
        num, den = (_ppow(fld, p, n) for p in (self._num, self._den))
        if _is_const(self):
            return _const(fld, num.get(fld._zm, 0), den[fld._zm])
        facs = self._facs
        return _new(fld, num, den,
                    facs and tuple((f, e * n) for f, e in facs))

    def __str__(self):
        return _render(self.field, self._num, self._den)

    def __repr__(self):
        return "Scalar(%s)" % (self,)

    def evaluate(self, assignment: dict[str, Fraction]) -> Fraction:
        """Evaluate at rational parameter values.  All params must be given."""
        values = []
        for p in self.field.params:
            if p not in assignment:
                raise ScalarError("no value for parameter %r" % (p,))
            values.append(Fraction(assignment[p]))
        num, den = (_evaluate(p, values) for p in (self._num, self._den))
        if den == 0:
            raise ScalarError("denominator vanishes at the given point")
        return num / den

    def complexity(self) -> int:
        """Number of terms in the numerator plus the denominator."""
        return len(self._num) + len(self._den)


_alloc = object.__new__


def _new(fld: ScalarField, num: dict, den: dict, facs) -> Scalar:
    """The Scalar num/den, for num and den in canonical form and facs
    den's factors (or None)."""
    s = _alloc(Scalar)
    s.field, s._raw, s._num, s._den, s._facs = fld, None, num, den, facs
    return s


def _const(fld: ScalarField, n: int, d: int) -> Scalar:
    """The constant n/d, for coprime n and d > 0, cached for an int in
    [-64, 64]."""
    if d == 1:
        s = fld._ints.get(n)
        if s is not None:
            return s
    zm = fld._zm
    s = _new(fld, {zm: n} if n else {}, {zm: d}, ())
    if d == 1 and -64 <= n <= 64:
        fld._ints[n] = s
    return s


def _const_of(fld: ScalarField, raw) -> Scalar:
    """The constant of raw, a canonical constant of fld's sympy field,
    with raw as its view."""
    zm = fld._zm
    n = raw.numer.get(zm)
    s = _const(fld, int(n.numerator) if n else 0,
               int(raw.denom[zm].numerator))
    if s._raw is None:
        s._raw = raw
    return s


def _is_const(x: Scalar) -> bool:
    """x has no parameter: its numerator is 0 or a constant, and so is
    its denominator."""
    fld = x.field
    return _is_ground(fld, x._den) and (not x._num
                                        or _is_ground(fld, x._num))


def _int_dict(poly) -> dict:
    """A sympy polynomial with integer coefficients as {exponents: int}."""
    return {m: int(c.numerator) for m, c in poly.items()}


def _evaluate(poly: dict, values: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for exps, c in poly.items():
        term = Fraction(c)
        for v, e in zip(values, exps):
            if e:
                term *= v ** e
        total += term
    return total


# -- polynomials as int dicts ------------------------------------------------

def _is_ground(fld: ScalarField, p: dict) -> bool:
    """p is a nonzero constant."""
    return len(p) == 1 and fld._zm in p


def _pneg(p: dict) -> dict:
    return {m: -c for m, c in p.items()}


def _padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        c += out.get(m, 0)
        if c:
            out[m] = c
        else:
            del out[m]
    return out


def _pmul(fld: ScalarField, p: dict, q: dict) -> dict:
    if len(p) < len(q):
        p, q = q, p
    mul = fld._mul
    if len(q) == 1:
        # a term times p: no two products share a monomial
        (m2, c2), = q.items()
        if m2 == fld._zm:
            return {m: c * c2 for m, c in p.items()}
        return {mul(m, m2): c * c2 for m, c in p.items()}
    out = {}
    get = out.get
    for m2, c2 in q.items():
        for m1, c1 in p.items():
            m = mul(m1, m2)
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ppow(fld: ScalarField, p: dict, n: int) -> dict:
    """p ** n for n >= 1."""
    out = p
    for _ in range(n - 1):
        out = _pmul(fld, out, p)
    return out


def _lead(fld: ScalarField, p: dict):
    """p's graded-lex leading monomial."""
    return max(p, key=fld._key)


class _Factor(dict):
    """An irreducible factor of a denominator as an int dict: primitive
    over Z, with a positive leading coefficient.  Hashable (it is never
    changed), with its leading term and the other terms split off for
    trial division."""

    __slots__ = ("lm", "lc", "rest", "_hash")

    def __init__(self, fld: ScalarField, terms: dict):
        super().__init__(terms)
        self.lm = _lead(fld, self)
        self.lc = self[self.lm]
        self.rest = [(m, c) for m, c in self.items() if m != self.lm]
        self._hash = hash(frozenset(self.items()))

    def __hash__(self):
        return self._hash


# -- arithmetic by trial division ---------------------------------------------

def _factors(x: Scalar) -> tuple:
    """x's denominator as ((f, e), ...): its integer content times the
    product of the f^e, each f a _Factor."""
    if x._facs is None:
        x._facs = _factor(x.field, x._den)
    return x._facs


def _factor(fld: ScalarField, den: dict) -> tuple:
    """den's factors as _factors gives them: den's primitive part if den
    has total degree 1, so is irreducible, else by sympy's factor_list."""
    if _is_ground(fld, den):
        return ()
    if all(sum(m) <= 1 for m in den):
        return ((_primitive(fld, den), 1),)
    return tuple((_primitive(fld, _int_dict(f.clear_denoms()[1])), e)
                 for f, e in fld._field.ring.from_dict(den).factor_list()[1])


def _primitive(fld: ScalarField, ints: dict) -> _Factor:
    """The primitive part of ints with a positive leading coefficient."""
    g = gcd(*ints.values())
    if ints[_lead(fld, ints)] < 0:
        g = -g
    return _Factor(fld, {m: c // g for m, c in ints.items()})


def _exquo(fld: ScalarField, p: dict, f: _Factor):
    """p / f if f divides p, else None, for p with integer coefficients
    (f is primitive, so p / f has integer coefficients if any)."""
    key, mul, div = fld._key, fld._mul, fld._div
    lm, lc, rest = f.lm, f.lc, f.rest
    r, q = dict(p), {}
    while r:
        m = max(r, key=key)
        qm = div(m, lm)
        c, rem = divmod(r.pop(m), lc)
        if qm is None or rem:
            return None
        q[qm] = c
        for fm, fc in rest:
            k = mul(qm, fm)
            v = r.get(k, 0) - c * fc
            if v:
                r[k] = v
            else:
                del r[k]
    return q


def _strip(fld, num, den, facs, upto):
    """Divide num and den by each (f, e) of upto as often as f divides num,
    at most e times; facs, den's factors, follow."""
    left = dict(facs)
    for f, e in upto:
        for _ in range(e):
            q = _exquo(fld, num, f)
            if q is None:
                break
            num, den = q, _exquo(fld, den, f)
            left[f] -= 1
    return num, den, tuple((f, e) for f, e in left.items() if e)


def _negate(x: Scalar) -> Scalar:
    fld = x.field
    if x is fld.one:
        return fld.minus_one
    if x is fld.minus_one:
        return fld.one
    return _new(fld, _pneg(x._num), x._den, x._facs)


def _sum(x: Scalar, y: Scalar, sign: int) -> Scalar:
    """x + y, or x - y for sign -1, over the lcm of the denominators.  For
    canonical a/b and c/d, where f's exponents in b and d differ, the new
    numerator is a or c times factors prime to f, modulo f: only an f with
    equal exponents can cancel."""
    fld = x.field
    if not y:
        return x
    if not x:
        return y if sign > 0 else _negate(y)
    an, ad, bn, bd = x._num, x._den, y._num, y._den
    fa, fb = _factors(x), _factors(y)
    if sign < 0:
        bn = _pneg(bn)
    if ad == bd:
        return _reduced(fld, _padd(an, bn), ad, fa, fa)
    # ma = bd / g and mb = ad / g, g the polynomial gcd of ad and bd
    ma, mb, facs, common = bd, ad, dict(fb), []
    for f, e in fa:
        e2 = facs.get(f, 0)
        for _ in range(min(e, e2)):
            ma, mb = _exquo(fld, ma, f), _exquo(fld, mb, f)
        if e == e2:
            common.append((f, e))
        facs[f] = max(e, e2)
    return _reduced(fld, _padd(_pmul(fld, an, ma), _pmul(fld, bn, mb)),
                    _pmul(fld, ad, ma), tuple(facs.items()), common)


def _product(x: Scalar, y: Scalar) -> Scalar:
    fld = x.field
    # a product with ±1 is the other operand or its negation
    if y is fld.one:
        return x
    if y is fld.minus_one:
        return _negate(x)
    if x is fld.one:
        return y
    if x is fld.minus_one:
        return _negate(y)
    if not x or not y:
        return fld.zero
    # on ints, two constants would cross-cancel like _scaled; sympy's
    # cancel stays until the benchmark's peak memory stops growing with
    # throughput (ROADMAP item 1)
    if _is_const(x) and _is_const(y):
        return _const_of(fld, x.raw * y.raw)
    return _times(fld, x._num, x._den, _factors(x), y._num, y._den,
                  _factors(y))


def _scaled(x: Scalar, n: int, d: int) -> Scalar:
    """x * n/d for coprime n and d > 0, on Python ints.  n/d is a constant,
    so it cancels against x's integer contents only: the factors stay."""
    fld = x.field
    if d == 1 and (n == 1 or n == -1):
        return x if n == 1 else _negate(x)
    if not n or not x:
        return fld.zero
    # x's contents are coprime, so n cancels only against den's, d only
    # against num's
    gn, gd = gcd(n, *x._den.values()), gcd(d, *x._num.values())
    n, d = n // gn, d // gd
    if _is_const(x):
        zm = fld._zm
        return _const(fld, x._num[zm] // gd * n, x._den[zm] // gn * d)
    return _new(fld, {m: c // gd * n for m, c in x._num.items()},
                {m: c // gn * d for m, c in x._den.items()}, x._facs)


def _times(fld, an, ad, fa, bn, bd, fb) -> Scalar:
    """(an/ad) * (bn/bd), each canonical with its denominator's factors.
    A common factor of an*bn and ad*bd divides an and bd, or bn and ad:
    trial division finds it."""
    if fb and not _is_ground(fld, an):
        an, bd, fb = _strip(fld, an, bd, fb, fb)
    if fa and not _is_ground(fld, bn):
        bn, ad, fa = _strip(fld, bn, ad, fa, fa)
    facs = fa or fb
    if fa and fb:
        facs = dict(fa)
        for f, e in fb:
            facs[f] = facs.get(f, 0) + e
        facs = tuple(facs.items())
    return _reduced(fld, _pmul(fld, an, bn), _pmul(fld, ad, bd), facs, ())


def _quotient(x: Scalar, y: Scalar) -> Scalar:
    """x / y: by a constant, x times its inverse on ints; else x times the
    inverse of y, whose denominator is factored."""
    fld = x.field
    if not y:
        raise ScalarError("division by zero")
    if not x:
        return fld.zero
    if _is_const(y):
        n, d = y._den[fld._zm], y._num[fld._zm]
        return _scaled(x, n, d) if d > 0 else _scaled(x, -n, -d)
    num, den = y._num, y._den
    if num[_lead(fld, num)] < 0:
        num, den = _pneg(num), _pneg(den)
    return _times(fld, x._num, x._den, _factors(x), den, num,
                  _factor(fld, num))


def _reduced(fld, num, den, facs, common) -> Scalar:
    """num/den in canonical form, for num and den with integer
    coefficients, den with a positive leading coefficient and factors
    facs, and every common factor among `common` ((f, e), ...).  Past
    those, only the gcd of the integer contents is left to divide out."""
    if not num:
        return fld.zero
    if common:
        num, den, facs = _strip(fld, num, den, facs, common)
    g = gcd(*num.values(), *den.values())
    if g != 1:
        num = {m: c // g for m, c in num.items()}
        den = {m: c // g for m, c in den.items()}
    if not facs and _is_ground(fld, num):
        return _const(fld, num[fld._zm], den[fld._zm])
    return _new(fld, num, den, facs)


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


def _fmt_poly(poly: dict, names) -> str:
    """poly's terms in sympy's order, graded-lex descending."""
    if not poly:
        return "0"
    out = []
    for exps, coeff in sorted(poly.items(), key=lambda t: _grlex(t[0]),
                              reverse=True):
        neg = coeff < 0
        ac = -coeff if neg else coeff
        mono = "*".join(
            nm if e == 1 else "%s^%d" % (nm, e)
            for nm, e in zip(names, exps) if e)
        if not mono:
            body = _fmt_int(ac)
        elif ac == 1:
            body = mono
        else:
            body = "%s*%s" % (_fmt_int(ac), mono)
        if not out:
            out.append("-" + body if neg else body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


def _render(fld: ScalarField, num: dict, den: dict) -> str:
    ns = _fmt_poly(num, fld.params)
    if not _is_ground(fld, den):
        ds = "(%s)" % _fmt_poly(den, fld.params)
    elif den[fld._zm] == 1:
        return ns
    else:
        ds = _fmt_int(den[fld._zm])
    if len(num) > 1:
        ns = "(%s)" % ns
    return "%s/%s" % (ns, ds)


def affine_defects(s: Scalar, unknowns) -> tuple[bool, bool]:
    """(not affine, unknown in a denominator) for s, the unknowns jointly."""
    idx = [s.field.params.index(u) for u in unknowns]
    nonaffine = any(sum(exps[i] for i in idx) > 1 for exps in s._num)
    in_den = any(exps[i] for exps in s._den for i in idx)
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

    def drop(poly):
        return {tuple(exps[i] for i in keep): c for exps, c in poly.items()}

    # an affine numerator term holds at most one unknown: file it under
    # that unknown (slot 0 is c0) with the unknown dropped
    nums = [{} for _ in range(len(idx) + 1)]
    for exps, c in s._num.items():
        slot = next((k + 1 for k, i in enumerate(idx) if exps[i]), 0)
        nums[slot][tuple(exps[i] for i in keep)] = c
    # no unknown is in s's denominator, so its factors stay irreducible,
    # primitive and positive-leading over the other parameters
    facs = tuple((_Factor(target, drop(f)), e) for f, e in _factors(s))
    c0, *cus = [_reduced(target, d, drop(s._den), facs, facs) for d in nums]
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
