"""Reading and writing presentation files."""

import operator
from importlib.resources import files

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nlca.algebra import AlgebraError, Presentation, render_tpoly
from nlca.formal import LPoly, render_lpoly
from nlca.frontend import (MAX_WORD, ParseError, _tokenize, load_bundled,
                           parse_expression, parse_path, parse_scalar,
                           parse_source, render_presentation)
from nlca.scalars import Scalar, is_name, scalar_field

from builders import BUILDERS, bundled_names, same_presentation


def test_bundled_names():
    assert bundled_names() == ["affine_sl2", "free_boson", "free_fermion",
                               "virasoro", "w3", "w3_ansatz"]


def test_bundled_files_match_programmatic_builders():
    for name, make in BUILDERS.items():
        assert same_presentation(load_bundled(name), make()), name


def test_load_bundled_missing():
    with pytest.raises(FileNotFoundError):
        load_bundled("nope")


def test_round_trip_is_stable():
    for name in BUILDERS:
        p = load_bundled(name)
        text = render_presentation(p)
        p2 = parse_source(text)
        assert same_presentation(p, p2), name
        assert render_presentation(p2) == text, name


def test_same_presentation_distinguishes():
    assert not same_presentation(load_bundled("virasoro"),
                                 load_bundled("free_boson"))
    assert not same_presentation(load_bundled("w3"), load_bundled("w3_ansatz"))


def test_parse_path(tmp_path):
    src = render_presentation(load_bundled("virasoro"))
    f = tmp_path / "v.nlca"
    f.write_text(src)
    assert same_presentation(parse_path(str(f)), BUILDERS["virasoro"]())
    with pytest.raises(OSError):
        parse_path(str(tmp_path / "missing.nlca"))


def test_empty_and_comment_only_sources():
    for src in ("", "# nothing here\n# at all\n", "   \n\t\n"):
        p = parse_source(src)
        assert [g.name for g in p.generators] == []
        assert p.name is None


# -- expressions -------------------------------------------------------------

def test_parse_expression_values(virasoro):
    p = virasoro
    assert parse_expression(p, ":T L L:") == p.poly({p.mono(("L", 1), "L"): 1})
    assert parse_expression(p, "1") == p.unit()
    assert parse_expression(p, "0*1") == p.zero()
    c = p.field.param("c")
    got = parse_expression(p, "2*:L L: + (c/2 - 1)*:T^2 L: - L")
    want = p.poly({
        p.mono("L", "L"): 2,
        p.mono(("L", 2)): c / 2 - 1,
        p.mono("L"): -1,
    })
    assert got == want


def test_parse_expression_rejects_lambda(virasoro):
    with pytest.raises(ParseError) as exc:
        parse_expression(virasoro, "2*lambda*:L:")
    assert [str(d) for d in exc.value.diagnostics] == \
        ["<expr>:1:3: lambda is not allowed in this expression"]


def test_parse_expression_unknown_generator(virasoro):
    with pytest.raises(ParseError) as exc:
        parse_expression(virasoro, ":L: + :M:")
    assert [str(d) for d in exc.value.diagnostics] == \
        ["<expr>:1:8: unknown generator 'M'"]


# -- diagnostics -------------------------------------------------------------

GEN_L = "generator L parity=even degree=2 weight=2;\n"

BAD_SOURCES = [
    (GEN_L + "bracket [L,M] = :L:;\n",
     ["f.nlca:2:12: unknown generator 'M'"]),
    (GEN_L + "bracket [L,L] = :T L:;\nbracket [L,L] = :T L:;\n",
     ["f.nlca:3:10: bracket [L,L] given twice"]),
    (GEN_L + "bracket [L,L] = :T L;\n",
     ["f.nlca:2:21: expected a generator inside ': ... :', found end of input"]),
    (GEN_L + "bracket [L,L] = q*:L:;\n",
     ["f.nlca:2:17: 'q' is not a declared scalar or generator"]),
    ("param c;\n" + GEN_L + "bracket [L,L] = (c/(c-c))*:L:;\n",
     ["f.nlca:3:19: division by zero"]),
    ("param lambda;\ngenerator T parity=even degree=1;\n",
     ["f.nlca:1:7: 'lambda' is reserved",
      "f.nlca:2:11: 'T' is reserved"]),
    ("param c;\nunknown c;\ngenerator c parity=even degree=1;\n",
     ["f.nlca:2:9: unknown 'c' already declared as a param",
      "f.nlca:3:11: generator 'c' already declared as a param"]),
    ("generator L parity=up degree=2;\n",
     ["f.nlca:1:20: parity must be 'even' or 'odd'"]),
    ("generator L parity=even;\n",
     ["f.nlca:1:11: generator 'L' is missing degree="]),
    ("algebra w3;\n",
     ["f.nlca:1:1: unknown statement 'algebra'"]),
    ("42;\n",
     ["f.nlca:1:1: expected a statement keyword, found '42'"]),
    (GEN_L.rstrip("\n")[:-1] + " $;\n",
     ["f.nlca:1:43: unexpected character '$'"]),
    ("generator L parity=even degree=1/0;\n",
     ["f.nlca:1:34: zero denominator"]),
    ("generator L parity=even degree=2 spin=2;\n",
     ["f.nlca:1:34: unknown generator attribute 'spin'"]),
    (GEN_L + "bracket [L,L] = lambda^101*1;\n",
     ["f.nlca:2:24: exponent 101 exceeds the limit 100"]),
    (GEN_L + "bracket [L,L] = lambda^60*lambda^50*1;\n",
     ["f.nlca:2:27: lambda power 110 exceeds the limit 100"]),
    ("param c;\n" + GEN_L + "bracket [L,L] = ((c+1)^100)^100*:T L:;\n",
     ["f.nlca:3:28: scalar may exceed the size limit 1000"]),
    ("param a;\nparam b;\nparam c;\n" + GEN_L
     + "bracket [L,L] = (a+b+c+1)^100*:T L:;\n",
     ["f.nlca:5:26: scalar may exceed the size limit 1000"]),
    ("param c;\n" + GEN_L
     + "bracket [L,L] = " + "(" * 400 + "c" + ")" * 400 + "*:T L:;\n",
     ["f.nlca:3:67: parentheses nested deeper than 50"]),
    (GEN_L + "bracket [L,L] = :" + "L " * 101 + ":;\n",
     ["f.nlca:2:218: word exceeds the limit of 100 factors"]),
    (GEN_L + "bracket [L,L] = :T L: + \u00b2*1;\n",
     ["f.nlca:2:25: unexpected character '\u00b2'",
      "f.nlca:2:26: expected a scalar factor, found '*'"]),
]


def test_diagnostics_frozen():
    for src, want in BAD_SOURCES:
        with pytest.raises(ParseError) as exc:
            parse_source(src, file="f.nlca")
        assert [str(d) for d in exc.value.diagnostics] == want, src


def test_parser_resyncs_at_semicolons():
    src = GEN_L + "bracket [L,M] = :L:;\nbracket [L,N] = :L:;\n"
    with pytest.raises(ParseError) as exc:
        parse_source(src, file="f.nlca")
    assert [str(d) for d in exc.value.diagnostics] == [
        "f.nlca:2:12: unknown generator 'M'",
        "f.nlca:3:12: unknown generator 'N'",
    ]


def test_only_declaration_errors_stop_the_bracket_pass():
    # a statement that declares nothing does not hide the bracket errors
    src = (GEN_L + "bracket [L,L] = :T L: + lambda*:Q:;\n"
           + "bracket [M,L] = :L:;\nfoo;\n")
    with pytest.raises(ParseError) as exc:
        parse_source(src, file="f.nlca")
    assert [str(d) for d in exc.value.diagnostics] == [
        "f.nlca:2:33: unknown generator 'Q'",
        "f.nlca:3:10: unknown generator 'M'",
        "f.nlca:4:1: unknown statement 'foo'",
    ]
    # nor does a character the tokenizer drops
    with pytest.raises(ParseError) as exc:
        parse_source(GEN_L + "bracket [L,L] = :T L: $;\nbracket [L,M] = :L:;\n",
                     file="f.nlca")
    assert [str(d) for d in exc.value.diagnostics] == [
        "f.nlca:2:23: unexpected character '$'",
        "f.nlca:3:12: unknown generator 'M'",
    ]
    # a broken or refused declaration stops it: the brackets could only
    # repeat it as unknown names
    for decl, want in (
            ("generator M parity=up degree=2;\n",
             "f.nlca:2:20: parity must be 'even' or 'odd'"),
            ("param M\n", "f.nlca:3:1: expected ';', found 'bracket'"),
            ("param L;\n", "f.nlca:1:11: generator 'L' already declared "
                            "as a param")):
        src = (GEN_L + decl + "bracket [L,M] = :L:;\n"
               + "bracket [L,L] = :T Q:;\n")
        with pytest.raises(ParseError) as exc:
            parse_source(src, file="f.nlca")
        assert [str(d) for d in exc.value.diagnostics] == [want], decl


def test_both_orientations_of_a_bracket_round_trip():
    p = Presentation([("a", 0, 1, 1), ("b", 0, 1, 1)])
    p.set_bracket("a", "b", [p.zero(), p.unit()])
    p.set_bracket("b", "a", [p.zero(), p.unit()])
    text = render_presentation(p)
    assert "bracket [a,b]" in text and "bracket [b,a]" in text
    p2 = parse_source(text)
    assert same_presentation(p, p2)
    assert render_presentation(p2) == text


def test_word_limit_admits_the_cap(free_boson):
    word = ":" + " ".join(["a"] * MAX_WORD) + ":"
    x = parse_expression(free_boson, word)
    assert [len(m) for m in x.terms] == [MAX_WORD]
    with pytest.raises(ParseError) as exc:
        parse_expression(free_boson, word[:-1] + " a:")
    assert [str(d) for d in exc.value.diagnostics] == [
        "<expr>:1:%d: word exceeds the limit of %d factors"
        % (2 * MAX_WORD + 2, MAX_WORD)]


# -- names: one rule for the tokenizer, the fields and Presentation ----------

NAMES = (st.text(st.sampled_from("aZ\u00e9_1\u00b2\u0663 T\u03bb\u0301-"),
                 max_size=5)
         | st.sampled_from(["T", "lambda", "name", "param", "even"])
         | st.text(max_size=3))
# mostly names, so that most presentations are accepted
GOOD_NAMES = st.builds(str.__add__, st.sampled_from("aZ\u00e9_\u03bb"),
                       st.text(st.sampled_from("aZ\u00e9_1\u00b2\u0663"),
                               max_size=3))
MOSTLY_NAMES = st.integers(0, 4).flatmap(
    lambda i: NAMES if i == 0 else GOOD_NAMES)


@settings(max_examples=300, deadline=None)
@given(NAMES)
def test_name_rule_is_the_tokenizer_rule(text):
    diags = []
    toks = _tokenize(text, "<t>", diags)
    one_name = (not diags and len(toks) == 2 and toks[0].kind == "name"
                and toks[0].text == text)
    assert is_name(text) == one_name


@settings(max_examples=150, deadline=None)
@given(st.none() | MOSTLY_NAMES,
       st.lists(MOSTLY_NAMES, min_size=3, max_size=3, unique=True))
def test_presentation_refuses_its_names_or_round_trips(name, names):
    param, unknown, gen = names
    try:
        p = Presentation([(gen, 0, 1, 1)], params=(param,),
                         unknowns=(unknown,), name=name)
    except AlgebraError:
        return
    s = p.field.param(param) + p.field.param(unknown)
    p.set_bracket(gen, gen, [p.gen(gen).scale(s), p.unit().scale(s)])
    text = render_presentation(p)
    p2 = parse_source(text)
    assert same_presentation(p, p2)
    assert render_presentation(p2) == text


# -- fuzzing: any text gives a value or a ParseError -------------------------

PIECES = ["a", "c", "q", "0", "1", "12", "(", ")", "+", "-", "*", "/", "^",
          "^100", " ", "lambda", "L", ":", ":T L:", ";", "$", "\u00b2"]
TEXTS = st.lists(st.sampled_from(PIECES), max_size=24).map("".join)


@settings(max_examples=60, deadline=None)
@given(TEXTS)
def test_fuzz_parse_scalar(text):
    try:
        parse_scalar(scalar_field(("a", "c")), text)
    except ParseError:
        pass


# Expression trees over Q(c, k): integer literals, parameters, + - * /,
# unary minus and ^0..^3, rendered with every subexpression in parentheses.
TREES = st.recursive(
    st.one_of(st.integers(-30, 30), st.sampled_from(["c", "k"])),
    lambda sub: st.one_of(st.tuples(st.sampled_from("+-*/"), sub, sub),
                          st.tuples(st.just("neg"), sub),
                          st.tuples(st.just("^"), sub, st.integers(0, 3))),
    max_leaves=8)
PLAIN_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv}
# a bound on each intermediate value's size that keeps every operation the
# parser checks below MAX_SCALAR_SIZE (31 * 31 < 1000)
TREE_SIZE = 31


def render_tree(t):
    if isinstance(t, int):
        return str(t) if t >= 0 else "(%d)" % t
    if isinstance(t, str):
        return t
    if t[0] == "neg":
        return "(-%s)" % render_tree(t[1])
    if t[0] == "^":
        return "%s^%d" % (render_tree(t[1]) if isinstance(t[1], str)
                          else "(%s)" % render_tree(t[1]), t[2])
    return "(%s %s %s)" % (render_tree(t[1]), t[0], render_tree(t[2]))


def plain_tree(fld, t, sizes):
    """t by sympy's operators on the fields' elements; the size of every
    intermediate value goes to sizes."""
    if isinstance(t, int):
        out = fld.convert(t).raw
    elif isinstance(t, str):
        out = fld.param(t).raw
    elif t[0] == "neg":
        out = -plain_tree(fld, t[1], sizes)
    elif t[0] == "^":
        base = plain_tree(fld, t[1], sizes)
        out = fld.one.raw
        for _ in range(t[2]):
            out = out * base
            sizes.append(len(out.numer) + len(out.denom))
    else:
        out = PLAIN_OPS[t[0]](plain_tree(fld, t[1], sizes),
                              plain_tree(fld, t[2], sizes))
    sizes.append(len(out.numer) + len(out.denom))
    return out


@settings(max_examples=150, deadline=None)
@given(TREES)
def test_fuzz_parse_scalar_trees_match_plain_arithmetic(tree):
    fld = scalar_field(("c", "k"))
    text = render_tree(tree)
    sizes = []
    try:
        want = Scalar(fld, plain_tree(fld, tree, sizes))
    except ZeroDivisionError:
        assume(max(sizes, default=0) <= TREE_SIZE)
        with pytest.raises(ParseError) as info:
            parse_scalar(fld, text)
        assert "division by zero" in str(info.value)
        return
    assume(max(sizes) <= TREE_SIZE)
    got = parse_scalar(fld, text)
    assert got == want
    assert str(got) == str(want)
    assert hash(got) == hash(want)


@settings(max_examples=60, deadline=None)
@given(TEXTS)
def test_fuzz_bracket_right_hand_side(text):
    try:
        parse_source("param a;\nparam c;\n" + GEN_L
                     + "bracket [L,L] = " + text + ";\n")
    except ParseError:
        pass


# Bundled tables with runs of one to four tokens deleted or duplicated, or
# two tokens swapped: every mutant stays within the MAX_* limits the
# originals keep.
BUNDLED_TOKENS = {
    name: [t.text for t in _tokenize(
        (files("nlca") / "algebras" / (name + ".nlca"))
        .read_text(encoding="utf-8"), name, [])[:-1]]
    for name in bundled_names()}
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["delete", "duplicate", "swap"]),
              st.integers(0, 999), st.integers(0, 999), st.integers(1, 4)),
    min_size=1, max_size=8)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(BUNDLED_TOKENS)), MUTATIONS)
# a coefficient -5*c - 6, once rendered as -(5*c - 6)
@example(name="w3", mutations=[("swap", 577, 857, 1)])
def test_fuzz_mutated_bundled_tables(name, mutations):
    toks = list(BUNDLED_TOKENS[name])
    for kind, i, j, n in mutations:
        if not toks:
            break
        i, j = i % len(toks), j % len(toks)
        if kind == "delete":
            del toks[i:i + n]
        elif kind == "duplicate":
            toks[i:i] = toks[i:i + n]
        else:
            toks[i], toks[j] = toks[j], toks[i]
    try:
        pres = parse_source(" ".join(toks))
    except ParseError:
        return
    # what parses renders to a file that parses back to it
    assert same_presentation(parse_source(render_presentation(pres)), pres)


# Polynomial coefficients whose leading term is negative, over one and two
# parameters, and neighbours whose sign the renderer may take off whole.
NEGATIVE_LEADS = {
    ("c",): ("-5*c - 6", "-c^2 + 3*c - 1", "-c - 1/2", "-(c + 1)/(c - 2)",
             "-2*c/(c + 1)", "-5*c", "-7/3"),
    ("a", "b"): ("-a*b + b - 2", "-3*a - b", "-a^2 - a*b + 1/2",
                 "(-a - b)/(a*b + 1)", "-a*b/3"),
}


def test_negative_leading_terms_render_to_their_values():
    for params, texts in NEGATIVE_LEADS.items():
        head = "".join("param %s;\n" % p for p in params)
        head += "generator L parity=even degree=2;\n"
        pres = parse_source(head)
        L, TL = pres.gen("L"), pres.gen("L", 1)
        for text in texts:
            s = parse_scalar(pres.field, text)
            x = TL + L.tensor(L).scale(s)
            assert parse_expression(pres, render_tpoly(x)).terms == x.terms
            lp = LPoly.from_coeff_list(pres, "lambda", [
                TL.scale(s), L.scale(-s), pres.zero(), pres.unit().scale(s)])
            again = parse_source(head + "bracket [L,L] = %s;\n"
                                 % render_lpoly(lp))
            assert [X.terms for X in again.pair_coeffs(0, 0)] == [
                lp.coeff((k,)).terms for k in range(4)]
            pres2 = parse_source(head)
            pres2.set_bracket("L", "L", [
                X.scale(s) for X in (pres2.gen("L", 1), pres2.gen("L"))])
            assert same_presentation(
                parse_source(render_presentation(pres2)), pres2)
    fld = scalar_field(("c",))
    pres = parse_source("param c;\ngenerator L parity=even degree=2;\n")
    L = pres.gen("L")
    assert render_tpoly(L.tensor(L).scale(parse_scalar(fld, "-5*c - 6"))) \
        == "-(5*c + 6)*:L L:"
