"""Command line driver: check, ope, reduce, basis, character, solve.

Exit codes: 0 success, 1 failed checks or an unusable solution space,
2 bad input (usage, unreadable file, parse or expression errors).
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from .algebra import AlgebraError, render_tmono, render_tpoly
from .ansatz import (AnsatzError, extract_system, solve,
                     solve_and_substitute)
from .calculus import CacheLimitError, CalculusError, Engine
from .formal import render_lpoly
from .frontend import (MAX_DIGITS, ParseError, parse_expression, parse_path,
                       parse_source)
from .pbw import PBWError, Reducer, WeightLimitError, character, enumerate_basis
from .scalars import ScalarError
from .verify import run_all


class _InputError(Exception):
    pass


class _CheckFailure(Exception):
    pass


def _load(path):
    if path == "-":
        return parse_source(sys.stdin.read(), "<stdin>")
    return parse_path(path)


def _require_valid(pres):
    violations = pres.validate()
    if violations:
        for v in violations:
            print("invalid presentation: %s" % v, file=sys.stderr)
        raise _CheckFailure()


def _emit(payload):
    print(json.dumps(payload, indent=2))


def _frac(text, what):
    # no exponents: Fraction builds 10^k before any bound can look at it
    if len(text) <= MAX_DIGITS and "e" not in text.lower():
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise _InputError("%s must be a rational number, got %r" % (what, text))


def _cmd_check(args):
    pres = _load(args.file)
    report = run_all(pres)
    if args.json:
        _emit(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def _cmd_ope(args):
    pres = _load(args.file)
    _require_valid(pres)
    x = parse_expression(pres, args.a, "<a>")
    y = parse_expression(pres, args.b, "<b>")
    engine = Engine(pres)
    out = engine.pbracket(x, y)
    if args.reduce:
        out = Reducer(engine).normal_order_lpoly(out)
    if args.json:
        _emit({"presentation": pres.name, "variable": "lambda",
               "terms": [{"power": e[0], "value": render_tpoly(X)}
                         for e, X in sorted(out.terms.items())]})
    else:
        print(render_lpoly(out))
    return 0


def _cmd_reduce(args):
    pres = _load(args.file)
    _require_valid(pres)
    x = parse_expression(pres, args.expr, "<expr>")
    engine = Engine(pres)
    out = Reducer(engine).normal_order(x)
    if args.json:
        _emit({"presentation": pres.name, "value": render_tpoly(out)})
    else:
        print(render_tpoly(out))
    return 0


def _cmd_basis(args):
    pres = _load(args.file)
    _require_valid(pres)
    w = _frac(args.weight, "--weight")
    monos = enumerate_basis(pres, w)
    rendered = [render_tmono(pres, m) for m in monos]
    if args.json:
        _emit({"presentation": pres.name, "weight": str(w),
               "dimension": len(rendered), "basis": rendered})
    else:
        for r in rendered:
            print(r)
    return 0


def _cmd_character(args):
    pres = _load(args.file)
    _require_valid(pres)
    w = _frac(args.max_weight, "--max-weight")
    ch = character(pres, w)
    items = sorted(ch.items())
    if args.json:
        _emit({"presentation": pres.name, "max_weight": str(w),
               "character": [{"weight": str(k), "dimension": d}
                             for k, d in items]})
    else:
        print(" ".join("%s:%d" % (k, d) for k, d in items))
    return 0


def _parse_triples(text, pres):
    triples = []
    for group in text.split(";"):
        group = group.strip()
        if not group:
            continue
        names = tuple(n.strip() for n in group.split(","))
        if len(names) != 3:
            raise _InputError("--triples takes comma-separated name triples, "
                              "got %r" % group)
        for n in names:
            if n not in pres.gen_index:
                raise _InputError("unknown generator %r in --triples" % n)
        triples.append(names)
    if not triples:
        raise _InputError("--triples is empty")
    return triples


def _cmd_solve(args):
    pres = _load(args.file)
    if not pres.unknowns:
        raise _InputError("%s declares no unknowns; nothing to solve for"
                          % args.file)
    if "=" not in args.pin:
        raise _InputError("--pin takes NAME=VALUE")
    pin_name, pin_val = args.pin.split("=", 1)
    if pin_name not in pres.unknowns:
        raise _InputError("%r is not an unknown of %s" % (pin_name, args.file))
    skipped = []
    if args.triples is not None:
        system = extract_system(pres,
                                triples=_parse_triples(args.triples, pres))
        res = solve_and_substitute(pres, system, pin=(pin_name, pin_val))
    else:
        res = solve(pres, (pin_name, pin_val), skipped)
    if args.json:
        _emit({"presentation": pres.name,
               "values": {u: str(res.values[u]) for u in pres.unknowns},
               "skipped": [list(t) for t in skipped],
               "report": res.report.to_json()})
    else:
        for t in skipped:
            print("skipped (%s, %s, %s): jacobiator not affine in the "
                  "unknowns; rechecked after substitution" % t)
        for u in pres.unknowns:
            print("%s = %s" % (u, res.values[u]))
        print("verification: %s"
              % ("all checks passed" if res.report.ok else "FAILED"))
    return 0 if res.report.ok else 1


@functools.cache
def _build_parser():
    """The command line parser, built on the first call: parse_args leaves
    it unchanged, so every later call of main reuses it."""
    parser = argparse.ArgumentParser(
        prog="nlca",
        description="Symbolic engine for lambda-bracket algebras and their "
                    "enveloping vertex algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("file", help="algebra file (.nlca), or - for stdin")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    cmd("check", _cmd_check,
        "verify skewsymmetry, grading, weights and Jacobi")
    p = cmd("ope", _cmd_ope, "lambda-bracket of two tensor expressions")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--reduce", action="store_true",
                   help="normally order each coefficient")
    p = cmd("reduce", _cmd_reduce, "normally order a tensor expression")
    p.add_argument("expr")
    p = cmd("basis", _cmd_basis, "ordered monomials of one conformal weight")
    p.add_argument("--weight", required=True)
    p = cmd("character", _cmd_character,
            "weight-space dimensions up to a bound")
    p.add_argument("--max-weight", required=True)
    p = cmd("solve", _cmd_solve,
            "determine unknown structure constants from Jacobi")
    p.add_argument("--pin", required=True, metavar="NAME=VALUE",
                   help="normalize the solution line")
    p.add_argument("--triples", metavar="A,B,C[;A,B,C...]",
                   help="impose only these jacobiators (default: the "
                        "sorted triples, then all if they give no verified "
                        "solution; non-affine ones skipped)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 2
    try:
        return args.fn(args)
    except _CheckFailure:
        return 1
    except ParseError as ex:
        for d in ex.diagnostics:
            print(str(d), file=sys.stderr)
        return 2
    except (_InputError, WeightLimitError, CacheLimitError, OSError,
            AlgebraError, ScalarError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    except (AnsatzError, CalculusError, PBWError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
