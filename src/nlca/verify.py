"""Axiom checks over a presentation, reported with witnesses.

run_all chains: structural validation, skewsymmetry of the bracket table,
conformal weight bookkeeping and the grading bound (both settled by
validation), and the Jacobi identity modulo the PBW kernel.  run_all
times each check and builds the one Engine and Reducer that skew and
jacobi share; when skew passed, jacobi mirrors each triple (b, a, c) with
b declared after a from (a, b, c) instead of computing it.  A check
carries witnesses for failures; a jacobiator that is nonzero before
reduction but vanishes after is recorded as a note, since that is the
expected non-linear behaviour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dfield
from itertools import product

from .algebra import Presentation, render_tpoly
from .calculus import Engine
from .formal import LPoly, render_lpoly
from .pbw import Reducer


@dataclass
class Witness:
    operands: tuple[str, ...]
    where: str
    residue: str

    def to_json(self):
        return {"operands": list(self.operands), "where": self.where,
                "residue": self.residue}


@dataclass
class CheckResult:
    check: str
    status: str  # pass | fail | skipped
    witnesses: list[Witness] = dfield(default_factory=list)
    notes: list[str] = dfield(default_factory=list)
    time_ms: float = 0.0

    def to_json(self):
        return {"check": self.check, "status": self.status,
                "witnesses": [w.to_json() for w in self.witnesses],
                "notes": list(self.notes)}


@dataclass
class Report:
    presentation: str | None
    results: list[CheckResult] = dfield(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def to_json(self):
        return {"presentation": self.presentation, "ok": self.ok,
                "results": [r.to_json() for r in self.results]}

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append("%-10s %s (%.1f ms)" % (r.check, r.status, r.time_ms))
            for n in r.notes:
                lines.append("    note: %s" % n)
            for w in r.witnesses:
                where = " at %s" % w.where if w.where else ""
                lines.append("    witness [%s]%s: %s"
                             % (", ".join(w.operands), where, w.residue))
        if self.ok:
            lines.append("all checks passed")
        else:
            bad = sum(1 for r in self.results if r.status == "fail")
            lines.append("FAILED: %d check(s)" % bad)
        return "\n".join(lines)


def check_validate(pres: Presentation) -> CheckResult:
    violations = pres.validate()
    return CheckResult("validate", "fail" if violations else "pass",
                       notes=violations)


def check_skew(pres: Presentation, engine: Engine) -> CheckResult:
    """sl(a, b) must vanish identically for every ordered generator pair."""
    res = CheckResult("skew", "pass")
    for gi in pres.generators:
        for gj in pres.generators:
            d = engine.structure_defect("sl", pres.gen(gi.name), pres.gen(gj.name))
            if not d.is_zero:
                res.status = "fail"
                res.witnesses.append(Witness(
                    (gi.name, gj.name), "", render_lpoly(d)))
    return res


def _implied(name: str, pres: Presentation) -> CheckResult:
    """The weights or grading row of a table that passed validate.

    validate checks degree, parity and weight on the stored brackets.  The
    opposite orientation is their image under skewsymmetry,
    lambda -> -lambda - T, which keeps degree and parity and maps the
    weight rule w_a + w_b - k - 1 onto itself, so every ordered generator
    pair obeys the rules as well."""
    if name == "weights" and not pres.weights_declared:
        return CheckResult(name, "skipped",
                           notes=["conformal weights not declared"])
    return CheckResult(name, "pass")


def all_triples(pres: Presentation) -> list[tuple[str, str, str]]:
    """Every ordered triple of generator names, the default Jacobi triples."""
    return list(product([g.name for g in pres.generators], repeat=3))


def check_jacobi(pres: Presentation, engine: Engine, reducer: Reducer, *,
                 skew_ok: bool = False) -> CheckResult:
    """Jacobiator of every generator triple must reduce to zero.

    skew_ok says that check_skew passed.  Then J(b, a, c) at lambda^i mu^j
    is -p(a,b) times J(a, b, c) at lambda^j mu^i, before and after normal
    ordering: skewsymmetry gives P_lambda(b, a) = -p(a,b) P_{-lambda-T}(a, b),
    and sesquilinearity in the first argument turns the third term into
    -p(a,b) P_{lambda+mu}(P_mu(a, b), c).  So a triple whose first generator
    is declared after its second is mirrored from that triple, which comes
    earlier in all_triples order, instead of computed."""
    res = CheckResult("jacobi", "pass")
    index = pres.gen_index
    done: dict = {}
    for (na, nb, nc) in all_triples(pres):
        if skew_ok and index[na] > index[nb]:
            seen = done[nb, na, nc]
            if seen is None:
                continue
            top, red = seen
            sign = -pres.parity_sign(pres.mono(na), pres.mono(nb))
            red = LPoly(pres, red.vars, {(j, i): X.scale(sign)
                                         for (i, j), X in red.terms.items()})
        else:
            j = engine.jacobiator(pres.gen(na), pres.gen(nb), pres.gen(nc))
            if j.is_zero:
                done[na, nb, nc] = None
                continue
            top = max(pres.mono_degree(m)
                      for X in j.terms.values() for m in X.terms)
            red = reducer.normal_order_lpoly(j)
            done[na, nb, nc] = top, red
        if red.is_zero:
            res.notes.append(
                "jacobiator(%s, %s, %s) has a nonzero pre-reduction "
                "residue of top degree %s; zero after normal ordering"
                % (na, nb, nc, top))
        else:
            res.status = "fail"
            for e in sorted(red.terms):
                where = " ".join(
                    "%s^%d" % (v, p) for v, p in zip(red.vars, e) if p)
                res.witnesses.append(Witness(
                    (na, nb, nc), where or "constant term",
                    render_tpoly(red.terms[e])))
    return res


def _timed(check, *args, **kwargs) -> CheckResult:
    t0 = time.perf_counter()
    res = check(*args, **kwargs)
    res.time_ms = (time.perf_counter() - t0) * 1000.0
    return res


def run_all(pres: Presentation) -> Report:
    """validate, skew, weights, grading, jacobi, each timed; the later
    checks are skipped when validation fails, since the engine's bounds
    assume a well formed table.  jacobi mirrors triples only when skew
    passed."""
    report = Report(pres.name)
    v = _timed(check_validate, pres)
    report.results.append(v)
    if v.status == "fail":
        for name in ("skew", "weights", "grading", "jacobi"):
            report.results.append(CheckResult(
                name, "skipped", notes=["presentation failed validation"]))
        return report
    engine = Engine(pres)
    reducer = Reducer(engine)
    skew = _timed(check_skew, pres, engine)
    report.results += [
        skew, _timed(_implied, "weights", pres),
        _timed(_implied, "grading", pres),
        _timed(check_jacobi, pres, engine, reducer,
               skew_ok=skew.status == "pass")]
    return report
