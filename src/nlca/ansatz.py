"""Solving bracket tables with unknown structure constants.

A presentation may declare unknowns alongside its parameters; bracket
coefficients must then be affine in the unknowns.  The Jacobi identity,
reduced to the PBW basis, becomes a linear system over Q(params): one
equation per (lambda-power, basis monomial) pair.  A one-dimensional
solution space plus one pinned unknown determines all the others; the
solved table is substituted back and fully re-verified.

`solve` imposes the sorted triples (i <= j <= k) first and keeps their
solution if it verifies: every triple's rows then hold on it, so it is the
all-triples solution, with the same normalization.  Otherwise it solves on
all triples.  One outcome differs from solving on all triples at once: an
all-triples system with inhomogeneous rows whose sorted triples give a
verified solution is solved, not refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebra import Presentation, TPoly
from .calculus import Engine
from .frontend import parse_scalar
from .pbw import Reducer
from .scalars import (
    LinearSystem, Scalar, ScalarError, affine_split, nullspace, scalar_field)
from .verify import Report, all_triples, run_all


class AnsatzError(Exception):
    pass


def _check_table(pres: Presentation) -> None:
    if not pres.unknowns:
        raise AnsatzError("presentation declares no unknowns")
    violations = pres.validate()
    if violations:
        raise AnsatzError("invalid presentation: %s" % violations[0])


def extract_system(pres: Presentation, triples=None,
                   skipped: list | None = None) -> LinearSystem:
    """Linear equations on the unknowns from reduced jacobiators.

    triples: generator-name triples to impose; all ordered triples by
    default.  Rows are deduplicated and sorted, so the result does not
    depend on the processing order.

    A triple whose reduced jacobiator is not affine in the unknowns (they
    met each other through nested brackets) raises when `skipped` is None;
    otherwise it is left out and appended to `skipped`, to be covered by
    the full verification after substitution.
    """
    _check_table(pres)
    engine = Engine(pres)
    reducer = Reducer(engine)
    if triples is None:
        triples = all_triples(pres)
    system = LinearSystem(scalar_field(pres.params), pres.unknowns)
    for (na, nb, nc) in triples:
        red = reducer.normal_order_lpoly(
            engine.jacobiator(pres.gen(na), pres.gen(nb), pres.gen(nc)))
        try:
            splits = [affine_split(s, pres.unknowns)
                      for X in red.terms.values() for s in X.terms.values()]
        except ScalarError as ex:
            if skipped is None:
                raise AnsatzError(
                    "triple (%s, %s, %s) leaves the linear regime: %s"
                    % (na, nb, nc, ex)) from None
            skipped.append((na, nb, nc))
            continue
        for c0, cus in splits:
            system.add_row(cus, -c0)
    system.sort_rows()
    return system


def substitute_unknowns(pres: Presentation, values: dict[str, Scalar]) -> Presentation:
    """Concrete presentation with every unknown replaced by its value."""
    out = Presentation(
        [(g.name, g.parity, g.degree, g.weight) for g in pres.generators],
        params=pres.params, name=pres.name)
    for (i, j) in pres.given_pairs():
        coeffs = []
        for X in pres.pair_coeffs(i, j):
            terms = {}
            for mono, s in X.terms.items():
                snew, cus = affine_split(s, pres.unknowns)
                for u, cu in zip(pres.unknowns, cus):
                    snew = snew + cu * values[u]
                if not snew.is_zero:
                    terms[mono] = snew
            coeffs.append(TPoly(out, terms))
        out.set_bracket(pres.generators[i].name, pres.generators[j].name, coeffs)
    return out


@dataclass
class SolveResult:
    values: dict[str, Scalar]
    presentation: Presentation
    report: Report


def _pin_value(field, unknowns, pin) -> Scalar:
    name, val = pin
    if name not in unknowns:
        raise AnsatzError("%r is not an unknown of the system" % (name,))
    if isinstance(val, str):
        val = parse_scalar(field, val, "<pin>")
    elif isinstance(val, (int, Fraction, Scalar)):
        val = field.convert(val)
    else:
        raise AnsatzError("cannot interpret pin value %r" % (val,))
    if val.is_zero:
        raise AnsatzError("pinning %s to 0 gives only the zero solution"
                          % (name,))
    return val


def solve_and_substitute(pres: Presentation, system: LinearSystem,
                         pin: tuple) -> SolveResult:
    """Solve a one-dimensional system by pinning one unknown's value.

    pin = (unknown name, value); the value may be an int, Fraction, Scalar
    over Q(params), or a string in the scalar grammar of the file format
    (a bad one raises ParseError with `<pin>` locations).  A zero value is
    refused, as it selects the zero solution.
    """
    name = pin[0]
    val = _pin_value(system.field, system.unknowns, pin)
    if not system.is_homogeneous():
        raise AnsatzError("system has inhomogeneous rows")
    basis = nullspace(system)
    if not basis:
        raise AnsatzError("only the zero solution satisfies the system")
    if len(basis) > 1:
        raise AnsatzError(
            "solution space has dimension %d; a single pin cannot fix it"
            % len(basis))
    v = basis[0]
    i = system.unknowns.index(name)
    if v[i].is_zero:
        raise AnsatzError(
            "%s vanishes on the solution line; pinning it cannot normalize"
            % (name,))
    scale = val / v[i]
    values = {u: v[k] * scale for k, u in enumerate(system.unknowns)}
    solved = substitute_unknowns(pres, values)
    report = run_all(solved)
    return SolveResult(values, solved, report)


def solve(pres: Presentation, pin: tuple,
          skipped: list | None = None) -> SolveResult:
    """Solve on the sorted triples; if they give no verified solution,
    return or raise what solve_and_substitute does on all triples, whose
    system is the sorted triples' rows plus those of the other triples.

    The table and the pin are checked first, as extract_system and
    solve_and_substitute check them.  Non-affine triples among those
    imposed are appended to `skipped`.
    """
    _check_table(pres)
    pin = (pin[0], _pin_value(scalar_field(pres.params), pres.unknowns, pin))
    found = []
    sorted_triples = list(combinations_with_replacement(
        [g.name for g in pres.generators], 3))
    system = extract_system(pres, sorted_triples, skipped=found)
    try:
        res = solve_and_substitute(pres, system, pin)
    except AnsatzError:
        res = None
    if res is None or not res.report.ok:
        # keep the sorted triples' rows and add the other triples'; list
        # the skipped triples in all_triples order, as extract_system does
        triples, done = all_triples(pres), set(sorted_triples)
        rest = extract_system(pres, [t for t in triples if t not in done],
                              skipped=found)
        rest.rows += system.rows
        rest.sort_rows()
        skip = set(found)
        found = [t for t in triples if t in skip]
        res = solve_and_substitute(pres, rest, pin)
    if skipped is not None:
        skipped.extend(found)
    return res
