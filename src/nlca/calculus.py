"""The product/bracket recursion on the tensor algebra.

Extends the generator lambda-bracket table to a quasi-product N(A, B) and a
quasi-bracket P_lambda(A, B) on all of the tensor algebra.  The recursion
peels a factor off the left argument (for P with a single left factor, off
the right one), and each peel is one defect formula solved for its left
side: q for N(a A', B), wl for P(a, b C), wr for P(a A', B).  _q_rest,
_wl_rest and _wr_rest add each right side, times 1 in the recursion and
times -1 in the defect kernels.  All defects land in the ideal generated
by m_element instances and so vanish after normal ordering.

An Engine keeps one memo, a dict of tagged keys: ("n", A, B) holds N(A, B)
and ("p", A, B) holds P(A, B) for monomials A, B, except the concatenations
N(1, B), N(A, 1) and N(a, B), neither stored nor counted in stats;
("lie", a, b) holds the commutator lie(a, b), the integral of [a_lambda b]
over [-T, 0], of two T^n-generators in closed form (_lie), which the PBW
swap step reads; and ("no", E) holds the normal form of the word E that a
pbw.Reducer built on the Engine computed.  A lambda-polynomial is a dense
list of TPoly coefficients indexed by the lambda-power, the shape
Presentation.bracket_r returns; sums are built in place in term dicts the
caller owns, never in a memoized entry.  Only the public methods wrap a
result in an LPoly, to name its variable.  The closed forms' rational
weights (1/(m+1), Beta values, binomials, signs) stay ints and Fractions,
which a Scalar multiplies on Python ints, with no conversion to a Scalar.
Each new N, P or lie entry is checked against its degree bound,
deg N(A,B) <= deg A + deg B and deg P(A,B), deg lie(a,b) < deg A + deg B,
before _keep stores it.

NLCA_CACHE_LIMIT, if set and not empty, is a non-negative integer: an
Engine wipes its whole memo when it holds that many entries and one more
is to be stored.
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
        self._memo: dict = {}
        self.stats = {"n_calls": 0, "p_calls": 0, "lie_calls": 0,
                      "n_hits": 0, "p_hits": 0, "lie_hits": 0}

    # -- public operations ---------------------------------------------------

    def nprod(self, x: TPoly, y: TPoly) -> TPoly:
        """N(x, y), the quasi-product extending juxtaposition."""
        return self._n_poly(x, y)

    def pbracket(self, x: TPoly, y: TPoly) -> LPoly:
        """P_lambda(x, y), the quasi-bracket extending the generator table."""
        return LPoly.from_coeff_list(self.pres, "lambda", self._p_poly(x, y))

    def lie(self, x: TPoly, y: TPoly) -> TPoly:
        """Integral of the quasi-bracket over [-T, 0]."""
        acc = self._multilinear(lambda A, B: ((0, self._lie_mono(A, B)),),
                                (x, y))
        return TPoly(self.pres, acc.get(0, {}))

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
        if len(A) <= 1 or not B:
            return self._mono(A + B)
        self.stats["n_calls"] += 1
        key = ("n", A, B)
        hit = self._memo.get(key)
        if hit is not None:
            self.stats["n_hits"] += 1
            return hit
        pres = self.pres
        d: dict = {}
        self._q_rest(d, A[:1], A[1:], B, 1)
        return self._keep(key, TPoly(pres, d), d, pres.mono_units(A)
                          + pres.mono_units(B) + 1)

    def _p(self, A: TMono, B: TMono) -> list[TPoly]:
        self.stats["p_calls"] += 1
        key = ("p", A, B)
        hit = self._memo.get(key)
        if hit is not None:
            self.stats["p_hits"] += 1
            return hit
        pres = self.pres
        if not A or not B:
            out: list[TPoly] = []
        elif len(A) == 1 and len(B) == 1:
            out = pres.bracket_r(A[0], B[0])
        else:
            acc: list[dict] = []
            if len(A) == 1:
                self._wl_rest(acc, A, B[:1], B[1:], 1)
            else:
                self._wr_rest(acc, A[:1], A[1:], B, 1)
            out = _coeff_list(pres, acc)
        return self._keep(key, out, (m for X in out for m in X.terms),
                          pres.mono_units(A) + pres.mono_units(B))

    def _lie(self, a: RGen, b: RGen) -> TPoly:
        """lie(T^m x, T^n y) = sum_k (-1)^k B(m+k+1, n+1) T^(m+n+k+1) X_k,
        X_k the lambda^k coefficient of [x_lambda y]: the integral over
        [-T, 0] of (-lambda)^m (lambda+T)^n [x_lambda y] in closed form,
        by int_{-T}^0 lambda^p = (-1)^p T^(p+1)/(p+1) and
        sum_j C(n,j) (-1)^j / (a+j) = B(a, n+1)."""
        self.stats["lie_calls"] += 1
        key = ("lie", a, b)
        hit = self._memo.get(key)
        if hit is not None:
            self.stats["lie_hits"] += 1
            return hit
        pres = self.pres
        m, n = a.n, b.n
        d: dict = {}
        for k, X in enumerate(pres.pair_coeffs(a.gen, b.gen)):
            img = apply_T(X, m + n + k + 1)
            if img:
                _add_scaled(d, img, (-1) ** k * _beta(m + k, n))
        # gen_units, not mono_units: a zero commutator sums no degrees
        return self._keep(key, TPoly(pres, d), d, pres.gen_units[a.gen]
                          + pres.gen_units[b.gen])

    def _keep(self, key: tuple, out, monos=(), bound: int = 0):
        """Store out, a new memo entry, under key and return it.  Every
        monomial in monos must lie strictly below bound (the degree bound
        of an N entry is passed plus one, as it may be reached).  When the
        memo holds cache_limit entries it is wiped first."""
        pres = self.pres
        for mono in monos:
            if not pres.mono_units(mono) < bound:
                tag, A, B = key
                if tag == "lie":
                    A, B = (A,), (B,)
                raise CalculusError(
                    "degree bound broken: %s(%s, %s) contains %s"
                    % ("lie" if tag == "lie" else tag.upper(),
                       render_tmono(pres, A), render_tmono(pres, B),
                       render_tmono(pres, mono)))
        memo = self._memo
        if self.cache_limit is not None and len(memo) >= self.cache_limit:
            memo.clear()
        memo[key] = out
        return out

    def _lie_mono(self, A: TMono, B: TMono) -> TPoly:
        """lie of two monomials, by the closed form _lie for single factors."""
        if len(A) == 1 and len(B) == 1:
            return self._lie(A[0], B[0])
        return _int_minus_T(self.pres, self._p(A, B))

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
        """The jacobiator of three monomials as {(i, j): term dict}, the
        lambda^i mu^j coefficients.  When A == B the second term,
        -p(A,A) P_mu(A, P_lambda(A,C)), is the first with lambda and mu
        exchanged, so it is read off the first instead of recomputed."""
        pres = self.pres
        acc: dict = {}
        A_poly = self._mono(A)
        for j, Z in enumerate(self._p(B, C)):
            if not Z:
                continue
            for i, W in enumerate(self._p_poly(A_poly, Z)):
                _add_scaled(acc.setdefault((i, j), {}), W)
        sign = pres.parity_sign(A, B)
        if A == B:
            # a snapshot: adding in place would read a (j, i) slot that
            # already holds part of the second term
            for (i, j), d in [(e, TPoly(pres, dict(d)))
                              for e, d in acc.items()]:
                _add_scaled(acc.setdefault((j, i), {}), d, -sign)
        else:
            B_poly = self._mono(B)
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
        self._n_into(out, self._lie_mono(A, B), C_poly, -1)
        return TPoly(self.pres, out)

    def _wl_mono(self, A: TMono, B: TMono, C: TMono) -> list[TPoly]:
        acc: list[dict] = []
        for m, X in enumerate(self._p_poly(self._mono(A), self._n(B, C))):
            _lacc(acc, m, X)
        self._wl_rest(acc, A, B, C, -1)
        return _coeff_list(self.pres, acc)

    def _wr_mono(self, A: TMono, B: TMono, C: TMono) -> list[TPoly]:
        acc: list[dict] = []
        for m, X in enumerate(self._p_poly(self._n(A, B), self._mono(C))):
            _lacc(acc, m, X)
        self._wr_rest(acc, A, B, C, -1)
        return _coeff_list(self.pres, acc)

    def _q_mono(self, A: TMono, B: TMono, C: TMono) -> TPoly:
        out: dict = {}
        self._n_into(out, self._n(A, B), self._mono(C))
        self._q_rest(out, A, B, C, -1)
        return TPoly(self.pres, out)

    def _q_rest(self, out: dict, A: TMono, B: TMono, C: TMono, s: int) -> None:
        """Add s * (N(A, N(B,C)) + N(int A, P(B,C)) + p(A,B) N(int B, P(A,C)))
        into the term dict out; q(A,B,C) is N(N(A,B), C) minus it."""
        A_poly = self._mono(A)
        sign = self.pres.parity_sign(A, B)
        self._n_into(out, A_poly, self._n(B, C), s)
        self._int_into(out, A_poly, self._p(B, C), s)
        self._int_into(out, self._mono(B), self._p(A, C), s * sign)

    def _wl_rest(self, acc: list, A: TMono, B: TMono, C: TMono, s: int) -> None:
        """Add s * (N(P(A,B), C) + int_0^lambda P(P(A,B), C) + p(A,B) N(B,
        P(A,C))) into acc; wl(A,B,C) is P(A, N(B,C)) minus it."""
        sign = self.pres.parity_sign(A, B)
        self._right_into(acc, self._p(A, B), self._mono(C), s)
        for m, Y in enumerate(self._p(A, C)):
            if Y:
                _lacc(acc, m, self._n_poly(self._mono(B), Y), s * sign)

    def _wr_rest(self, acc: list, A: TMono, B: TMono, C: TMono, s: int) -> None:
        """Add s * (N(e^{T d_lambda} A, P(B,C)) + p(A,B) N(e^{T d_lambda} B,
        P(A,C)) + p(A,B) int_0^lambda P(B, P(A,C))) into acc; wr(A,B,C) is
        P(N(A,B), C) minus it."""
        B_poly = self._mono(B)
        sign = self.pres.parity_sign(A, B)
        pAC = self._p(A, C)
        self._expand_into(acc, self._mono(A), self._p(B, C), s)
        self._expand_into(acc, B_poly, pAC, s * sign)
        self._beta_into(acc, B_poly, pAC, s * sign)


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
        img = apply_T(X, m + 1)
        if img:
            _add_scaled(out, img, Fraction((-1) ** m, m + 1))
    return TPoly(pres, out)
