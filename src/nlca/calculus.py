"""The product/bracket recursion on the tensor algebra.

Extends the generator lambda-bracket table to a quasi-product N(A, B) and a
quasi-bracket P_lambda(A, B) on all of the tensor algebra, by the mutual
recursion that peels tensor factors off the left argument (and, for P with
a single left factor, off the right argument).  These are the operations
whose failure to be associative/Lie is measured by the structure defects,
all of which land in the ideal generated by m_element instances and so
vanish after normal ordering.

Everything is memoized per presentation at the monomial level.  A
lambda-polynomial is a dense list of TPoly coefficients indexed by the
lambda-power, the shape Presentation.bracket_r returns; sums are built in
place in term dicts the caller owns, never in a memoized TPoly.  Only the
public methods wrap a result in an LPoly, to name its variable.  Every
memoized entry is verified against the degree bounds
deg N(A,B) <= deg A + deg B and deg P(A,B) < deg A + deg B.

NLCA_CACHE_LIMIT, if set and not empty, is a non-negative integer: an
Engine wipes both of its memos when their entries reach it, and a Reducer
wipes its memo likewise, by the same rule (_store).
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import product
from math import comb

from .algebra import (Presentation, RGen, TMono, TPoly, _add_scaled,
                      _coeff_list, apply_T, render_tmono, skew_coeffs)
from .formal import LPoly


class CalculusError(Exception):
    pass


class CacheLimitError(CalculusError):
    """NLCA_CACHE_LIMIT is neither empty nor a non-negative integer."""


def _cache_limit() -> int | None:
    env = os.environ.get("NLCA_CACHE_LIMIT", "")
    if not env:
        return None
    if not (env.isascii() and env.isdigit() and len(env) <= 18):
        raise CacheLimitError("NLCA_CACHE_LIMIT must be empty or a "
                              "non-negative integer below 10^18")
    return int(env)


class Engine:
    def __init__(self, pres: Presentation):
        self.pres = pres
        pres.frozen = True
        self.cache_limit = _cache_limit()
        self._nmemo: dict = {}
        self._pmemo: dict = {}
        self.stats = {"n_calls": 0, "p_calls": 0, "n_hits": 0, "p_hits": 0}

    # -- public operations ---------------------------------------------------

    def nprod(self, x: TPoly, y: TPoly) -> TPoly:
        """N(x, y), the quasi-product extending juxtaposition."""
        return self._n_poly(x, y)

    def pbracket(self, x: TPoly, y: TPoly) -> LPoly:
        """P_lambda(x, y), the quasi-bracket extending the generator table."""
        return LPoly.from_coeff_list(self.pres, "lambda", self._p_poly(x, y))

    def lie(self, x: TPoly, y: TPoly) -> TPoly:
        """Integral of the quasi-bracket over [-T, 0]."""
        return _int_minus_T(self.pres, self._p_poly(x, y))

    def m_element(self, A: TPoly, b: RGen, c: RGen, D: TPoly) -> TPoly:
        """A (x) sn(b, c, D): a generating element of the PBW kernel ideal."""
        sn = self.structure_defect("sn", self._mono((b,)), self._mono((c,)), D)
        return A.tensor(sn)

    def jacobiator(self, x: TPoly, y: TPoly, z: TPoly) -> LPoly:
        """P_l(x, P_m(y,z)) - p(x,y) P_m(y, P_l(x,z)) - P_{l+m}(P_l(x,y), z),
        an LPoly in (lambda, mu)."""
        acc = self._multilinear(
            lambda A, B, C: self._jac_mono(A, B, C).items(), (x, y, z))
        return LPoly(self.pres, ("lambda", "mu"),
                     {e: TPoly(self.pres, d) for e, d in acc.items() if d})

    def structure_defect(self, kind: str, x: TPoly, y: TPoly, z: TPoly = None):
        """One of the named defects: sl, sn, wl, wr, q.

        sl/wl/wr are lambda-polynomials (LPoly in lambda); sn/q are TPolys.
        All vanish identically when an argument is a bare generator in the
        slot the recursion peels, and always vanish after normal ordering.
        """
        if kind == "sl":
            if z is not None:
                raise CalculusError("sl takes two operands")
            fn, xs = self._sl_mono, (x, y)
        elif kind not in ("sn", "wl", "wr", "q"):
            raise CalculusError("unknown defect kind %r" % (kind,))
        elif z is None:
            raise CalculusError("%s takes three operands" % (kind,))
        else:
            fn = {"sn": self._sn_mono, "wl": self._wl_mono,
                  "wr": self._wr_mono, "q": self._q_mono}[kind]
            xs = (x, y, z)
        if kind in ("sn", "q"):
            acc = self._multilinear(lambda *ms: ((0, fn(*ms)),), xs)
            return TPoly(self.pres, acc.get(0, {}))
        acc = self._multilinear(lambda *ms: enumerate(fn(*ms)), xs)
        return LPoly(self.pres, ("lambda",),
                     {(m,): TPoly(self.pres, d) for m, d in acc.items() if d})

    def _multilinear(self, kernel, xs: tuple) -> dict:
        """Extend a monomial kernel to the operands xs by multilinearity.
        kernel(*monos) yields (key, TPoly) pairs; the result maps each key
        to an owned term dict."""
        acc: dict = {}
        for terms in product(*(x.terms.items() for x in xs)):
            s = terms[0][1]
            for _, c in terms[1:]:
                s = s * c
            for key, W in kernel(*(mono for mono, _ in terms)):
                _add_scaled(acc.setdefault(key, {}), W, s)
        return acc

    # -- monomial-level core -------------------------------------------------

    def _mono(self, m: TMono) -> TPoly:
        return TPoly(self.pres, {m: self.pres.field.one})

    def _n_poly(self, x: TPoly, y: TPoly) -> TPoly:
        out: dict = {}
        self._n_into(out, x, y)
        return TPoly(self.pres, out)

    def _n_into(self, out: dict, x: TPoly, y: TPoly, s=None) -> None:
        """Add s*N(x, y) into the term dict out."""
        for A, sa in x.terms.items():
            for B, sb in y.terms.items():
                c = sa * sb
                _add_scaled(out, self._n(A, B), c if s is None else c * s)

    def _p_poly(self, x: TPoly, y: TPoly) -> list[TPoly]:
        acc: list[dict] = []
        for A, sa in x.terms.items():
            for B, sb in y.terms.items():
                s = sa * sb
                for m, X in enumerate(self._p(A, B)):
                    _lacc(acc, m, X, s)
        return _coeff_list(self.pres, acc)

    def _n(self, A: TMono, B: TMono) -> TPoly:
        self.stats["n_calls"] += 1
        hit = self._nmemo.get((A, B))
        if hit is not None:
            self.stats["n_hits"] += 1
            return hit
        pres = self.pres
        if not A:
            out = self._mono(B)
        elif not B:
            out = self._mono(A)
        elif len(A) == 1:
            out = self._mono(A + B)
        else:
            a, Ap = A[0], A[1:]
            sign = pres.parity_sign((a,), Ap)
            d = _prepend(a, self._n(Ap, B)).terms
            self._int_into(d, self._mono((a,)), self._p(Ap, B), 1)
            self._int_into(d, self._mono(Ap), self._p((a,), B), sign)
            out = TPoly(pres, d)
        bound = pres.mono_units(A) + pres.mono_units(B)
        for mono in out.terms:
            if not pres.mono_units(mono) <= bound:
                raise CalculusError(
                    "degree bound broken: N(%s, %s) contains %s"
                    % (render_tmono(pres, A), render_tmono(pres, B),
                       render_tmono(pres, mono)))
        _store(self.cache_limit, self._nmemo, (A, B), out, self._pmemo)
        return out

    def _p(self, A: TMono, B: TMono) -> list[TPoly]:
        self.stats["p_calls"] += 1
        hit = self._pmemo.get((A, B))
        if hit is not None:
            self.stats["p_hits"] += 1
            return hit
        pres = self.pres
        if not A or not B:
            out: list[TPoly] = []
        elif len(A) == 1 and len(B) == 1:
            out = pres.bracket_r(A[0], B[0])
        elif len(A) == 1:
            out = self._p_peel_right(A[0], B)
        else:
            out = self._p_peel_left(A[0], A[1:], B)
        bound = pres.mono_units(A) + pres.mono_units(B)
        for X in out:
            for mono in X.terms:
                if not pres.mono_units(mono) < bound:
                    raise CalculusError(
                        "degree bound broken: P(%s, %s) contains %s"
                        % (render_tmono(pres, A), render_tmono(pres, B),
                           render_tmono(pres, mono)))
        _store(self.cache_limit, self._pmemo, (A, B), out, self._nmemo)
        return out

    def _p_peel_right(self, a: RGen, B: TMono) -> list[TPoly]:
        """P(a, b (x) C) for a single left factor."""
        pres = self.pres
        b, C = B[0], B[1:]
        sign = pres.parity_sign((a,), (b,))
        acc: list[dict] = []
        self._right_into(acc, self._p((a,), (b,)), self._mono(C), 1)
        for m, Y in enumerate(self._p((a,), C)):
            if Y:
                _lacc(acc, m, _prepend(b, Y), sign)
        return _coeff_list(pres, acc)

    def _p_peel_left(self, a: RGen, Ap: TMono, B: TMono) -> list[TPoly]:
        """P(a (x) A', B), peeling the leftmost factor."""
        pres = self.pres
        sign = pres.parity_sign((a,), Ap)
        paB = self._p((a,), B)
        Ap_poly = self._mono(Ap)
        acc: list[dict] = []
        self._expand_into(acc, self._mono((a,)), self._p(Ap, B), 1)
        self._expand_into(acc, Ap_poly, paB, sign)
        self._beta_into(acc, Ap_poly, paB, sign)
        return _coeff_list(pres, acc)

    def _int_into(self, out: dict, x: TPoly, coeffs: list, s: int) -> None:
        """Add s * sum_m N(T^(m+1) x / (m+1), X_m) into the term dict out."""
        for m, X in enumerate(coeffs):
            if X:
                img = apply_T(x, m + 1).scale(Fraction(s, m + 1))
                self._n_into(out, img, X)

    def _right_into(self, acc: list, coeffs: list, y: TPoly, s: int) -> None:
        """Add s * sum_i lambda^i (N(X_i, y) + sum_m lambda^(m+1)/(m+1) W_im)
        into acc, where W_im is the lambda^m coefficient of P(X_i, y)."""
        for i, X in enumerate(coeffs):
            if X:
                _lacc(acc, i, self._n_poly(X, y), s)
                for m, W in enumerate(self._p_poly(X, y)):
                    _lacc(acc, i + m + 1, W, Fraction(s, m + 1))

    def _expand_into(self, acc: list, x: TPoly, coeffs: list, s: int) -> None:
        """Add s * sum_{m,k} C(m,k) lambda^(m-k) N(T^k x, X_m) into acc."""
        for m, X in enumerate(coeffs):
            if X:
                for k in range(m + 1):
                    img = apply_T(x, k).scale(comb(m, k) * s)
                    _lacc(acc, m - k, self._n_poly(img, X))

    def _beta_into(self, acc: list, x: TPoly, coeffs: list, s: int) -> None:
        """Add s * sum_{n,m} B(n+1, m+1) lambda^(n+m+1) W_nm into acc, where
        W_nm is the lambda^m coefficient of P(x, Y_n)."""
        for n, Y in enumerate(coeffs):
            if Y:
                for m, W in enumerate(self._p_poly(x, Y)):
                    _lacc(acc, n + m + 1, W, s * _beta(n, m))

    def _jac_mono(self, A: TMono, B: TMono, C: TMono) -> dict:
        pres = self.pres
        acc: dict = {}
        A_poly, B_poly = self._mono(A), self._mono(B)
        for j, Z in enumerate(self._p(B, C)):
            if not Z:
                continue
            for i, W in enumerate(self._p_poly(A_poly, Z)):
                _add_scaled(acc.setdefault((i, j), {}), W)
        sign = pres.parity_sign(A, B)
        for i, Z in enumerate(self._p(A, C)):
            if not Z:
                continue
            for j, W in enumerate(self._p_poly(B_poly, Z)):
                _add_scaled(acc.setdefault((i, j), {}), W, -sign)
        C_poly = self._mono(C)
        for i, Z in enumerate(self._p(A, B)):
            if not Z:
                continue
            for n, W in enumerate(self._p_poly(Z, C_poly)):
                if not W:
                    continue
                for k in range(n + 1):
                    _add_scaled(acc.setdefault((i + k, n - k), {}), W,
                                -comb(n, k))
        return {e: TPoly(pres, d) for e, d in acc.items() if d}

    # -- defect kernels ------------------------------------------------------

    def _sl_mono(self, A: TMono, B: TMono) -> list[TPoly]:
        acc: list[dict] = []
        for m, X in enumerate(self._p(A, B)):
            _lacc(acc, m, X)
        sign = self.pres.parity_sign(A, B)
        for m, X in enumerate(skew_coeffs(self._p(B, A), sign)):
            _lacc(acc, m, X)
        return _coeff_list(self.pres, acc)

    def _sn_mono(self, A: TMono, B: TMono, C: TMono) -> TPoly:
        A_poly, B_poly, C_poly = self._mono(A), self._mono(B), self._mono(C)
        sign = self.pres.parity_sign(A, B)
        out: dict = {}
        self._n_into(out, A_poly, self._n_poly(B_poly, C_poly))
        self._n_into(out, B_poly, self._n_poly(A_poly, C_poly), -sign)
        self._n_into(out, _int_minus_T(self.pres, self._p(A, B)), C_poly, -1)
        return TPoly(self.pres, out)

    def _wl_mono(self, A: TMono, B: TMono, C: TMono) -> list[TPoly]:
        pres = self.pres
        A_poly, B_poly, C_poly = self._mono(A), self._mono(B), self._mono(C)
        sign = pres.parity_sign(A, B)
        acc: list[dict] = []
        for m, X in enumerate(self._p_poly(A_poly, self._n(B, C))):
            _lacc(acc, m, X)
        self._right_into(acc, self._p(A, B), C_poly, -1)
        for i, Y in enumerate(self._p(A, C)):
            if Y:
                _lacc(acc, i, self._n_poly(B_poly, Y), -sign)
        return _coeff_list(pres, acc)

    def _wr_mono(self, A: TMono, B: TMono, C: TMono) -> list[TPoly]:
        pres = self.pres
        A_poly, B_poly, C_poly = self._mono(A), self._mono(B), self._mono(C)
        sign = pres.parity_sign(A, B)
        acc: list[dict] = []
        for m, X in enumerate(self._p_poly(self._n(A, B), C_poly)):
            _lacc(acc, m, X)
        pAC = self._p(A, C)
        self._beta_into(acc, B_poly, pAC, -sign)
        self._expand_into(acc, A_poly, self._p(B, C), -1)
        self._expand_into(acc, B_poly, pAC, -sign)
        return _coeff_list(pres, acc)

    def _q_mono(self, A: TMono, B: TMono, C: TMono) -> TPoly:
        pres = self.pres
        A_poly, B_poly, C_poly = self._mono(A), self._mono(B), self._mono(C)
        sign = pres.parity_sign(A, B)
        out: dict = {}
        self._n_into(out, self._n(A, B), C_poly)
        self._n_into(out, A_poly, self._n(B, C), -1)
        self._int_into(out, A_poly, self._p(B, C), -1)
        self._int_into(out, B_poly, self._p(A, C), -sign)
        return TPoly(pres, out)


def _store(limit: int | None, memo: dict, key, val, *shared: dict) -> None:
    """memo[key] = val, first wiping memo and the memos it shares the
    limit with when their entries together reach it; None is no limit."""
    if limit is not None and len(memo) + sum(map(len, shared)) >= limit:
        memo.clear()
        for m in shared:
            m.clear()
    memo[key] = val


def _prepend(rg: RGen, x: TPoly) -> TPoly:
    return TPoly(x.pres, {(rg,) + mono: s for mono, s in x.terms.items()})


def _lacc(acc: list, m: int, x: TPoly, s=None) -> None:
    """Add s*x into the lambda^m slot of a list of owned term dicts."""
    while len(acc) <= m:
        acc.append({})
    _add_scaled(acc[m], x, s)


def _beta(n: int, m: int) -> Fraction:
    """B(n+1, m+1) = n! m! / (n+m+1)!, which is also
    sum_k C(n,k) (-1)^(n-k) / (n-k+m+1), the integral of x^m (1-x)^n."""
    return Fraction(1, (n + m + 1) * comb(n + m, m))


def _int_minus_T(pres: Presentation, coeffs: list) -> TPoly:
    """sum_m (-1)^m T^{m+1}(X_m)/(m+1): the bracket integral over [-T, 0]."""
    out: dict = {}
    for m, X in enumerate(coeffs):
        if X:
            _add_scaled(out, apply_T(X, m + 1), Fraction((-1) ** m, m + 1))
    return TPoly(pres, out)
