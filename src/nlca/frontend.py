"""Text format for algebra presentations.

A source file is a sequence of `;`-terminated statements:

    name virasoro;
    param c;
    generator L parity=even degree=2 weight=2;
    bracket [L,L] = :T L: + 2*lambda*:L: + (c/12)*lambda^3*1;

Tensor monomials are written `:T^2 L W:` (or `1` for the empty monomial);
scalars are rational expressions in the declared params/unknowns.  `#`
starts a comment.  Only one bracket orientation per pair needs to be
given; the other is derived by skewsymmetry.  An exponent `^k` (on lambda,
T or a scalar) and the lambda-power of a term are at most MAX_POWER; a
`:...:` word has at most MAX_WORD factors; an integer literal has at most
MAX_DIGITS digits; a scalar's size is bounded by MAX_SCALAR_SIZE and its
parenthesis nesting by MAX_NESTING.  parse_scalar reads the same scalar
grammar on its own.
"""

import operator
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .algebra import _RESERVED, Presentation, TPoly
from .formal import LPoly, render_lpoly
from .scalars import Scalar, ScalarError, ScalarField, _read_int


class Diagnostic(NamedTuple):
    file: str
    line: int
    col: int
    message: str

    def __str__(self):
        return "%s:%d:%d: %s" % (self.file, self.line, self.col, self.message)


class ParseError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class Token(NamedTuple):
    kind: str  # int | name | op | eof
    text: str
    line: int
    col: int


_OPS = set(";,=[]():+-*/^")


def _tokenize(text: str, file: str, diags: list) -> list[Token]:
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            toks.append(Token("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        diags.append(Diagnostic(file, line, start_col,
                                "unexpected character %r" % ch))
        i += 1
        col += 1
    toks.append(Token("eof", "", line, col))
    return toks


class _Halt(Exception):
    """Abandon the current statement; the caller resyncs at ';'."""


class _TokenStream:
    def __init__(self, toks, file, diags, start=0, stop=None):
        self.toks = toks
        self.file = file
        self.diags = diags
        self.pos = start
        self.stop = len(toks) - 1 if stop is None else stop

    def peek(self) -> Token:
        if self.pos >= self.stop:
            return self.toks[self.stop]._replace(kind="eof", text="")
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_op(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text == text

    def take_op(self, *texts: str) -> Token | None:
        """The next token if it is one of the operators `texts`."""
        t = self.peek()
        if t.kind == "op" and t.text in texts:
            self.pos += 1
            return t
        return None

    def error(self, tok: Token, message: str):
        self.diags.append(Diagnostic(self.file, tok.line, tok.col, message))
        raise _Halt()

    def expect_op(self, text: str) -> Token:
        t = self.peek()
        if not (t.kind == "op" and t.text == text):
            self.error(t, "expected %r, found %s" % (text, _show(t)))
        return self.next()

    def expect_name(self, what: str = "a name") -> Token:
        t = self.peek()
        if t.kind != "name":
            self.error(t, "expected %s, found %s" % (what, _show(t)))
        return self.next()

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind != "int":
            self.error(t, "expected an integer, found %s" % _show(t))
        if len(t.text) > MAX_DIGITS:
            self.error(t, "integer of %d digits exceeds the limit %d"
                       % (len(t.text), MAX_DIGITS))
        self.next()
        return _read_int(t.text)


def _show(t: Token) -> str:
    if t.kind == "eof":
        return "end of input"
    return repr(t.text)


# Bound on every `^k` and on a term's lambda-power.  Coefficient lists are
# dense in the lambda-power and deriving the skew orientation costs its
# square, so an unbounded exponent would let a short file run for minutes.
MAX_POWER = 100

# Bound on the factors of a `:...:` word.  The engine recurses once a left
# factor, so this keeps a parsed word within Python's default recursion
# limit (600 factors overflowed it); it bounds depth, not cost.
MAX_WORD = 100

# Bound on the digits of an integer literal, Python's default int-string
# limit.  scalars._read_int reads a literal in chunks below the smallest
# limit Python allows, so a file parses the same under any
# PYTHONINTMAXSTRDIGITS.
MAX_DIGITS = 4300

# Bound on the size of parsed scalars, measured by Scalar.complexity().  The
# grammar applies + - * / to a and b, and multiplies out `x^k`, only if
# a.complexity() * b.complexity() is at most this: the product bounds the
# result's size, so no step can build something larger.  A bound on degrees
# alone would let `(a+b+c+1)^100`, of degree 100, expand to 176,851 terms.
MAX_SCALAR_SIZE = 1000

# Bound on nested parentheses in a scalar; the grammar recurses once a level.
MAX_NESTING = 50

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}


def _rational(ts: _TokenStream) -> Fraction:
    sign = -1 if ts.take_op("-") else 1
    num = ts.expect_int()
    if ts.take_op("/"):
        den = ts.expect_int()
        if den == 0:
            ts.error(ts.toks[ts.pos - 1], "zero denominator")
        return Fraction(sign * num, den)
    return Fraction(sign * num)


class _ExprParser:
    """Parses bracket right-hand sides, CLI operand expressions and scalars.

    The scalar grammar reads only `field`; `pres` may be None when a bare
    scalar is parsed.
    """

    def __init__(self, ts: _TokenStream, field: ScalarField,
                 pres: Presentation | None = None, allow_lambda: bool = False):
        self.ts = ts
        self.field = field
        self.pres = pres
        self.allow_lambda = allow_lambda
        self.depth = 0

    def expression(self) -> list[TPoly]:
        """Coefficient list, index = lambda-power."""
        ts = self.ts
        out: list[dict] = []  # per lambda power: {monomial: scalar}
        t = ts.peek()
        neg = ts.take_op("-")
        while True:
            k, mono, s = self.term()
            out.extend({} for _ in range(k + 1 - len(out)))
            terms = out[k]
            if neg:
                s = -s
            terms[mono] = (self._op(t, operator.add, terms[mono], s)
                           if mono in terms else s)
            t = ts.take_op("+", "-")
            if not t:
                break
            neg = t.text == "-"
        self._expect_end()
        return [self.pres.poly(terms) for terms in out]

    def _expect_end(self):
        t = self.ts.peek()
        if t.kind != "eof":
            self.ts.error(t, "expected '+', '-' or end of expression, found %s"
                          % _show(t))

    def term(self) -> tuple[int, tuple, Scalar]:
        ts = self.ts
        scalar = None
        lampow = 0
        mono = None
        while True:
            t = ts.peek()
            if t.kind == "op" and t.text == ":":
                if mono is not None:
                    ts.error(t, "more than one tensor monomial in a term")
                mono = self._colon_mono()
            elif t.kind == "name" and t.text == "lambda":
                ts.next()
                if not self.allow_lambda:
                    ts.error(t, "lambda is not allowed in this expression")
                lampow += self._opt_power()
                if lampow > MAX_POWER:
                    ts.error(t, "lambda power %d exceeds the limit %d"
                             % (lampow, MAX_POWER))
            elif t.kind == "name" and t.text in self.pres.gen_index:
                ts.next()
                if mono is not None:
                    ts.error(t, "more than one tensor monomial in a term")
                mono = (self.pres.rgen(t.text),)
            else:
                f = self._scalar_factor()
                scalar = (f if scalar is None
                          else self._op(t, operator.mul, scalar, f))
            while t := ts.take_op("/"):
                num = self.field.one if scalar is None else scalar
                scalar = self._op(t, operator.truediv, num,
                                  self._scalar_factor())
            if not ts.take_op("*"):
                break
        return (lampow, () if mono is None else mono,
                self.field.one if scalar is None else scalar)

    def _opt_power(self) -> int:
        if not self.ts.take_op("^"):
            return 1
        t = self.ts.peek()
        k = self.ts.expect_int()
        if k > MAX_POWER:
            self.ts.error(t, "exponent %d exceeds the limit %d" % (k, MAX_POWER))
        return k

    def _op(self, tok: Token, op, a: Scalar, b: Scalar) -> Scalar:
        """op(a, b), or a diagnostic at tok."""
        if a.complexity() * b.complexity() > MAX_SCALAR_SIZE:
            self.ts.error(tok, "scalar may exceed the size limit %d"
                          % MAX_SCALAR_SIZE)
        try:
            return op(a, b)
        except ScalarError as ex:
            self.ts.error(tok, str(ex))

    def _scalar_factor(self) -> Scalar:
        ts = self.ts
        t = ts.peek()
        if t.kind == "int":
            base = self.field.convert(ts.expect_int())
        elif t.kind == "name":
            if t.text not in self.field.params:
                ts.error(t, "%r is not a declared scalar or generator" % t.text)
            ts.next()
            base = self.field.param(t.text)
        elif t.kind == "op" and t.text == "(":
            if self.depth == MAX_NESTING:
                ts.error(t, "parentheses nested deeper than %d" % MAX_NESTING)
            ts.next()
            self.depth += 1
            base = self._scalar_expr()
            self.depth -= 1
            ts.expect_op(")")
        else:
            ts.error(t, "expected a scalar factor, found %s" % _show(t))
        t = ts.peek()
        k = self._opt_power()
        value = base if k else self.field.one
        for _ in range(k - 1):
            value = self._op(t, operator.mul, value, base)
        return value

    def _scalar_expr(self) -> Scalar:
        ts = self.ts
        neg = ts.take_op("-")
        acc = self._scalar_term()
        if neg:
            acc = -acc
        while t := ts.take_op("+", "-"):
            acc = self._op(t, _ARITH[t.text], acc, self._scalar_term())
        return acc

    def _scalar_term(self) -> Scalar:
        ts = self.ts
        acc = self._scalar_factor()
        while t := ts.take_op("*", "/"):
            acc = self._op(t, _ARITH[t.text], acc, self._scalar_factor())
        return acc

    def _colon_mono(self) -> tuple:
        ts = self.ts
        ts.expect_op(":")
        factors = []
        while not ts.take_op(":"):
            t = ts.peek()
            if t.kind != "name":
                ts.error(t, "expected a generator inside ': ... :', found %s"
                         % _show(t))
            n = 0
            if t.text == "T":
                ts.next()
                n = self._opt_power()
                t = ts.expect_name("a generator after 'T'")
            else:
                ts.next()
            if t.text not in self.pres.gen_index:
                ts.error(t, "unknown generator %r" % t.text)
            if len(factors) == MAX_WORD:
                ts.error(t, "word exceeds the limit of %d factors" % MAX_WORD)
            factors.append(self.pres.rgen(t.text, n))
        return tuple(factors)


class _FileParser:
    def __init__(self, text: str, file: str):
        self.file = file
        self.diags: list[Diagnostic] = []
        self.toks = _tokenize(text, file, self.diags)
        self.ts = _TokenStream(self.toks, file, self.diags)
        self.name = None
        self.params: list[tuple[str, Token]] = []
        self.unknowns: list[tuple[str, Token]] = []
        self.gens: list[tuple] = []  # (name, parity, degree, weight, tok)
        self.brackets: list[tuple] = []  # (a_tok, b_tok, start, stop)
        self.bad_declaration = False  # skips the bracket pass

    def parse(self) -> Presentation:
        ts = self.ts
        while ts.peek().kind != "eof":
            head = ts.peek().text
            try:
                self._statement()
            except _Halt:
                if head in ("name", "param", "unknown", "generator"):
                    self.bad_declaration = True
                self._resync()
        pres = self._build()
        if self.diags:
            self.diags.sort(key=lambda d: (d.line, d.col))
            raise ParseError(self.diags)
        return pres

    def _resync(self):
        ts = self.ts
        while ts.peek().kind != "eof":
            if ts.next().text == ";":
                return

    def _statement(self):
        ts = self.ts
        head = ts.expect_name("a statement keyword")
        if head.text == "name":
            t = ts.expect_name()
            self.name = t.text
        elif head.text == "param":
            t = ts.expect_name()
            self.params.append((t.text, t))
        elif head.text == "unknown":
            t = ts.expect_name()
            self.unknowns.append((t.text, t))
        elif head.text == "generator":
            self._generator()
        elif head.text == "bracket":
            self._bracket()
        else:
            ts.error(head, "unknown statement %r" % head.text)
        ts.expect_op(";")

    def _generator(self):
        ts = self.ts
        nt = ts.expect_name("a generator name")
        parity = degree = weight = None
        while ts.peek().kind == "name":
            key = ts.next()
            ts.expect_op("=")
            if key.text == "parity":
                v = ts.expect_name("'even' or 'odd'")
                if v.text not in ("even", "odd"):
                    ts.error(v, "parity must be 'even' or 'odd'")
                parity = 0 if v.text == "even" else 1
            elif key.text == "degree":
                degree = _rational(ts)
                if degree <= 0:
                    ts.error(key, "degree must be positive")
            elif key.text == "weight":
                weight = _rational(ts)
            else:
                ts.error(key, "unknown generator attribute %r" % key.text)
        if parity is None:
            ts.error(nt, "generator %r is missing parity=" % nt.text)
        if degree is None:
            ts.error(nt, "generator %r is missing degree=" % nt.text)
        self.gens.append((nt.text, parity, degree, weight, nt))

    def _bracket(self):
        ts = self.ts
        ts.expect_op("[")
        a = ts.expect_name("a generator name")
        ts.expect_op(",")
        b = ts.expect_name("a generator name")
        ts.expect_op("]")
        ts.expect_op("=")
        start = ts.pos
        while ts.peek().kind != "eof" and not ts.at_op(";"):
            ts.next()
        self.brackets.append((a, b, start, ts.pos))

    def _build(self) -> Presentation | None:
        d = self.diags
        seen: dict[str, str] = {}
        for text, tok in self.params:
            self._declare(seen, text, tok, "param")
        for text, tok in self.unknowns:
            self._declare(seen, text, tok, "unknown")
        decls = []
        for nm, parity, degree, weight, tok in self.gens:
            if self._declare(seen, nm, tok, "generator"):
                decls.append((nm, parity, degree, weight))
        if self.bad_declaration:
            return None
        pres = Presentation(decls,
                            params=tuple(t for t, _ in self.params),
                            unknowns=tuple(t for t, _ in self.unknowns),
                            name=self.name)
        entries = set()
        for a, b, start, stop in self.brackets:
            bad = False
            for t in (a, b):
                if t.text not in pres.gen_index:
                    d.append(Diagnostic(self.file, t.line, t.col,
                                        "unknown generator %r" % t.text))
                    bad = True
            if bad:
                continue
            key = (a.text, b.text)
            if key in entries:
                d.append(Diagnostic(self.file, a.line, a.col,
                                    "bracket [%s,%s] given twice" % key))
                continue
            entries.add(key)
            sub = _TokenStream(self.toks, self.file, d, start, stop)
            try:
                coeffs = _ExprParser(sub, pres.field, pres,
                                     allow_lambda=True).expression()
            except _Halt:
                continue
            pres.set_bracket(a.text, b.text, coeffs)
        return pres

    def _declare(self, seen, text, tok, kind) -> bool:
        if text in _RESERVED:
            message = "%r is reserved" % text
        elif text in seen:
            message = "%s %r already declared as a %s" % (kind, text, seen[text])
        else:
            seen[text] = kind
            return True
        self.diags.append(Diagnostic(self.file, tok.line, tok.col, message))
        self.bad_declaration = True
        return False


def parse_source(text: str, file: str = "<input>") -> Presentation:
    return _FileParser(text, file).parse()


def parse_path(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_source(fh.read(), str(path))


def parse_expression(pres: Presentation, text: str,
                     file: str = "<expr>") -> TPoly:
    """A lambda-free expression over `pres`, e.g. for CLI operands."""
    diags: list[Diagnostic] = []
    toks = _tokenize(text, file, diags)
    ts = _TokenStream(toks, file, diags)
    try:
        coeffs = _ExprParser(ts, pres.field, pres).expression()
    except _Halt:
        pass
    if diags:
        raise ParseError(diags)
    return coeffs[0]


def parse_scalar(field: ScalarField, text: str,
                 file: str = "<scalar>") -> Scalar:
    """A scalar of `field` in the bracket grammar, e.g. a `--pin` value."""
    diags: list[Diagnostic] = []
    ts = _TokenStream(_tokenize(text, file, diags), file, diags)
    parser = _ExprParser(ts, field)
    try:
        value = parser._scalar_expr()
        parser._expect_end()
    except _Halt:
        pass
    if diags:
        raise ParseError(diags)
    return value


# -- rendering ---------------------------------------------------------------

def render_presentation(pres: Presentation) -> str:
    lines = []
    if pres.name:
        lines.append("name %s;" % pres.name)
    for p in pres.params:
        lines.append("param %s;" % p)
    for u in pres.unknowns:
        lines.append("unknown %s;" % u)
    if lines:
        lines.append("")
    for g in pres.generators:
        w = "" if g.weight is None else " weight=%s" % g.weight
        lines.append("generator %s parity=%s degree=%s%s;"
                     % (g.name, "odd" if g.parity else "even", g.degree, w))
    lines.append("")
    for i, j in pres.given_pairs():
        lp = LPoly.from_coeff_list(pres, "lambda", pres.pair_coeffs(i, j))
        lines.append("bracket [%s,%s] = %s;"
                     % (pres.generators[i].name, pres.generators[j].name,
                        render_lpoly(lp)))
    return "\n".join(lines) + "\n"


# -- bundled algebra files ---------------------------------------------------

def load_bundled(name: str) -> Presentation:
    path = resources.files(__package__) / "algebras" / (name + ".nlca")
    return parse_source(path.read_text(encoding="utf-8"), name + ".nlca")
