"""Named lambda-polynomials with TPoly coefficients, for results and display.

An LPoly is a finite sum  sum_e  lambda_1^{e_1} ... lambda_r^{e_r} X_e
with X_e a TPoly and an explicit tuple of variable names.  The engine
computes with dense coefficient lists (index = lambda-power) and wraps a
result in an LPoly only to hand it back: a one-variable LPoly for
pbracket and the sl/wl/wr defects, a two-variable one for the
jacobiator.  Arithmetic here is what callers of those results need:
sums, scaling, multiplying by a variable, mapping the coefficients, and
rendering.
"""

from __future__ import annotations

from .algebra import (AlgebraError, Presentation, TPoly, _multiplier,
                      render_terms)


class LPoly:
    __slots__ = ("pres", "vars", "terms")

    def __init__(self, pres: Presentation, vars: tuple[str, ...] = (),
                 terms: dict | None = None):
        self.pres = pres
        self.vars = tuple(vars)
        self.terms = terms if terms is not None else {}

    @classmethod
    def from_coeff_list(cls, pres: Presentation, var: str, coeffs) -> "LPoly":
        return cls(pres, (var,),
                   {(k,): X for k, X in enumerate(coeffs) if not X.is_zero})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LPoly):
            return NotImplemented
        return (self.pres is other.pres and self.vars == other.vars
                and self.terms == other.terms)

    def _check(self, other: "LPoly"):
        if other.pres is not self.pres or other.vars != self.vars:
            raise AlgebraError("operands differ in presentation or variables")

    def __add__(self, other: "LPoly") -> "LPoly":
        self._check(other)
        out = dict(self.terms)
        for e, X in other.terms.items():
            acc = out.get(e)
            acc = X if acc is None else acc + X
            if acc.is_zero:
                out.pop(e, None)
            else:
                out[e] = acc
        return LPoly(self.pres, self.vars, out)

    def __sub__(self, other: "LPoly") -> "LPoly":
        return self + (-other)

    def __neg__(self) -> "LPoly":
        return LPoly(self.pres, self.vars,
                     {e: -X for e, X in self.terms.items()})

    def scale(self, s) -> "LPoly":
        s = _multiplier(self.pres.field, s)
        if not s:
            return LPoly(self.pres, self.vars)
        return LPoly(self.pres, self.vars,
                     {e: X.scale(s) for e, X in self.terms.items()})

    def map_coeffs(self, fn) -> "LPoly":
        out = {}
        for e, X in self.terms.items():
            Y = fn(X)
            if not Y.is_zero:
                out[e] = Y
        return LPoly(self.pres, self.vars, out)

    def shift(self, var: str, k: int = 1) -> "LPoly":
        """Multiply by var^k."""
        vi = self.vars.index(var)
        out = {}
        for e, X in self.terms.items():
            e2 = e[:vi] + (e[vi] + k,) + e[vi + 1:]
            out[e2] = X
        return LPoly(self.pres, self.vars, out)

    def coeff(self, exps) -> TPoly:
        return self.terms.get(tuple(exps), self.pres.zero())

    def __str__(self):
        return render_lpoly(self)

    def __repr__(self):
        return "LPoly(%s)" % (self,)


# -- rendering ---------------------------------------------------------------

def render_lpoly(p: LPoly) -> str:
    return render_terms(p.pres, (
        ("*".join(v if k == 1 else "%s^%d" % (v, k)
                  for v, k in zip(p.vars, e) if k), p.terms[e])
        for e in sorted(p.terms, key=lambda e: (sum(e), e))))
