import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nlca.frontend import ParseError, parse_scalar
from nlca.scalars import (
    LinearSystem, ScalarError, affine_split, nullspace, scalar_field)


@pytest.fixture(scope="module")
def Qc():
    return scalar_field(("c",))


def test_plain_fraction_arithmetic(Qc):
    half = Qc.convert(Fraction(1, 2))
    third = Qc.convert(Fraction(1, 3))
    assert half + third == Fraction(5, 6)
    assert (half + third).evaluate({"c": 7}) == Fraction(5, 6)


def test_inverse_cancels(Qc):
    c = Qc.param("c")
    x = 16 / (22 + 5 * c)
    y = (22 + 5 * c) / Qc.convert(16)
    assert x * y == Qc.one
    assert str(x * y) == "1"


def test_canonicalize_reduces_common_factors(Qc):
    c = Qc.param("c")
    x = (2 * c + 4) / (4 * c + 8)
    assert x == Fraction(1, 2)
    assert str(x) == "1/2"


def test_canonicalize_polynomial_gcd(Qc):
    c = Qc.param("c")
    x = (c * c - 100) / (3 * (22 + 5 * c) * (c + 10))
    expect = (c - 10) / (3 * (22 + 5 * c))
    assert x == expect
    assert str(x) == "(c - 10)/(15*c + 66)"
    # stored reduced: structural equality and hash agree with the value
    assert hash(x) == hash(expect)


def test_constants_hash_as_the_numbers_they_equal():
    # equal objects hash equal: a constant Scalar equals its int or Fraction
    for params in ((), ("c",), ("c", "k")):
        fld = scalar_field(params)
        numbers = [0, 1, -1, 3, -64, 65, 10 ** 40, Fraction(1, 2),
                   Fraction(-22, 5), Fraction(7, 10 ** 30)]
        for q in numbers:
            x = fld.convert(q)
            assert x == q and hash(x) == hash(q)
            assert {x: "entry"}.get(q) == "entry"
            assert {q: "entry"}.get(x) == "entry"
        assert len({fld.zero, 0}) == 1
        assert len({fld.one, 1, Fraction(1)}) == 1
        if params:
            c = fld.param("c")
            # constants that arithmetic with a parameter collapses to
            for x, q in ((c - c, 0), (c / c, 1), ((c + 5) - c, 5),
                         ((3 * c + 3) / (2 * c + 2), Fraction(3, 2))):
                assert x == q and hash(x) == hash(q)


def test_canonical_form_unique_randomized(Qc):
    # same value built two ways must be structurally identical
    rng = random.Random(20230817)
    c = Qc.param("c")
    for _ in range(40):
        num = sum((c ** i) * rng.randint(-6, 6) for i in range(3)) + rng.randint(1, 5)
        den = c * rng.randint(1, 4) + rng.randint(1, 9)
        junk = c * rng.randint(1, 3) + rng.randint(1, 7)
        x = num / den
        y = (num * junk) / (den * junk)
        assert x == y
        assert str(x) == str(y)


def test_division_by_zero_raises(Qc):
    with pytest.raises(ScalarError):
        Qc.one / Qc.zero


def test_mixed_fields_rejected(Qc):
    other = scalar_field(("k",))
    with pytest.raises(ScalarError):
        Qc.one + other.one


def test_field_axioms_randomized(Qc):
    rng = random.Random(99)
    c = Qc.param("c")

    def rand_scalar():
        num = sum((c ** i) * rng.randint(-4, 4) for i in range(3))
        den = c * rng.randint(0, 2) + rng.randint(1, 6)
        return num / den

    for _ in range(60):
        x, y, z = rand_scalar(), rand_scalar(), rand_scalar()
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if not x.is_zero:
            assert x * (1 / x) == Qc.one


def test_evaluation_matches_structure(Qc):
    # random-point evaluation agrees with Fraction arithmetic
    rng = random.Random(4242)
    c = Qc.param("c")
    x = (c * c - 100) / (3 * (22 + 5 * c) * (c + 10))
    y = (c - 10) / (3 * (22 + 5 * c))
    for _ in range(20):
        pt = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        if (3 * (22 + 5 * pt) * (pt + 10)) == 0:
            continue
        assert x.evaluate({"c": pt}) == y.evaluate({"c": pt})
        direct = (pt * pt - 100) / (3 * (22 + 5 * pt) * (pt + 10))
        assert x.evaluate({"c": pt}) == direct


def test_parse_render_round_trip(Qc):
    rng = random.Random(7)
    c = Qc.param("c")
    samples = [
        Qc.zero, Qc.one, -Qc.one, Qc.convert(Fraction(-3, 7)),
        c, -c, c / 2, 2 * c / 3, (c - 10) / (3 * (22 + 5 * c)),
        (c ** 3 - c + Fraction(1, 2)) / (7 * c ** 2 + 1),
    ]
    for _ in range(30):
        num = sum((c ** i) * rng.randint(-9, 9) for i in range(4))
        den = sum((c ** i) * rng.randint(-3, 3) for i in range(2)) + 5
        if den.is_zero:
            continue
        samples.append(num / den)
    for s in samples:
        assert parse_scalar(Qc, str(s)) == s
    Qab = scalar_field(("a", "b"))
    a, b = Qab.param("a"), Qab.param("b")
    samples = [a * b, a - b, (a ** 2 * b - 3) / (2 * b + a), -b / (7 * a * b)]
    for _ in range(30):
        num = sum(a ** i * b ** j * rng.randint(-9, 9)
                  for i in range(3) for j in range(3))
        den = sum(a ** i * b ** (1 - i) * rng.randint(-3, 3)
                  for i in range(2)) + 5
        if den.is_zero:
            continue
        samples.append(num / den)
    for s in samples:
        assert parse_scalar(Qab, str(s)) == s


def test_parse_expressions(Qc):
    c = Qc.param("c")
    assert parse_scalar(Qc, "16/(22 + 5*c)") == 16 / (22 + 5 * c)
    assert parse_scalar(Qc, "(c-10)/(3*(22+5*c))") == \
        (c - 10) / (3 * (22 + 5 * c))
    assert parse_scalar(Qc, "c^2 - 2*c + 1") == (c - 1) ** 2
    assert parse_scalar(Qc, "-c/12") == -c / 12
    assert parse_scalar(Qc, "1/2") == Fraction(1, 2)
    # an integer is a run of decimal digits of any script, as int() reads
    assert parse_scalar(Qc, "\u0663*c") == 3 * c
    with pytest.raises(ParseError):
        parse_scalar(Qc, "c +")
    with pytest.raises(ParseError):
        parse_scalar(Qc, "q")


def _random_coeff(rng, fld, names):
    """A random element of fld that only uses the given parameters."""
    def poly():
        out = fld.convert(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 3)):
            term = fld.convert(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for n in rng.sample(names, rng.randint(0, min(2, len(names)))):
                term = term * fld.param(n) ** rng.randint(1, 2)
            out = out + term
        return out

    num, den = poly(), poly()
    return num if den.is_zero or rng.random() < 0.4 else num / den


def test_affine_split_recombines_over_the_remaining_params():
    # unknowns at shuffled positions of the field, passed in shuffled order;
    # a refusal names s, and an unknown in a denominator is named first
    rng = random.Random(23)
    splits = refusals = 0
    for _ in range(300):
        names = rng.sample("abcdeuvw", rng.randint(2, 5))
        unknowns = rng.sample(names, rng.randint(1, min(3, len(names))))
        params = [n for n in names if n not in unknowns]
        big = scalar_field(names)
        small = scalar_field(params)
        s = _random_coeff(rng, big, params)
        for u in unknowns:
            if rng.random() < 0.7:
                s = s + _random_coeff(rng, big, params) * big.param(u)
        # an unknown-free nonzero factor for the refused shapes
        nonzero = big.convert(rng.choice([-2, 1, 3]))
        if params:
            nonzero = nonzero * (1 + big.param(rng.choice(params)) ** 2)
        u, w = rng.choice(unknowns), rng.choice(unknowns)
        shape = rng.random()
        if shape < 0.15:
            s = s + nonzero / (big.param(u) + 1)
            want = "unknown in a denominator: %s"
        elif shape < 0.3:
            s = s + nonzero * big.param(u) * big.param(w)
            want = "not affine in the unknowns: %s"
        elif shape < 0.35:
            s = s + nonzero * big.param(u) * big.param(w) / (big.param(u) + 1)
            want = "unknown in a denominator: %s"
        else:
            c0, cus = affine_split(s, unknowns)
            assert len(cus) == len(unknowns)
            assert all(c.field is small for c in [c0] + cus)
            back = parse_scalar(big, str(c0))
            for name, cu in zip(unknowns, cus):
                back = back + parse_scalar(big, str(cu)) * big.param(name)
            assert back == s
            splits += 1
            continue
        with pytest.raises(ScalarError) as exc:
            affine_split(s, unknowns)
        assert str(exc.value) == want % (s,)
        refusals += 1
    assert splits > 150 and refusals > 100


def test_nullspace_single_relation():
    F = scalar_field(())
    sys = LinearSystem(F, ("x", "y"))
    sys.add_row([F.one, F.one], F.zero)
    basis = nullspace(sys)
    assert len(basis) == 1
    assert basis[0] == [F.one, -F.one]


def test_nullspace_dependent_rows():
    F = scalar_field(())
    sys = LinearSystem(F, ("x", "y"))
    sys.add_row([F.one, F.convert(-2)], F.zero)
    sys.add_row([F.convert(3), F.convert(-6)], F.zero)
    basis = nullspace(sys)
    assert len(basis) == 1
    # (2, 1) up to scaling
    v = basis[0]
    assert v[0] * 1 == v[1] * 2


def test_nullspace_full_rank():
    F = scalar_field(())
    sys = LinearSystem(F, ("x", "y"))
    sys.add_row([F.one, F.zero], F.zero)
    sys.add_row([F.one, F.one], F.zero)
    assert nullspace(sys) == []


def test_nullspace_substitution_property():
    # every basis vector zeroes every homogeneous row
    rng = random.Random(555)
    Qc = scalar_field(("c",))
    c = Qc.param("c")
    for _ in range(10):
        n = rng.randint(2, 5)
        sys = LinearSystem(Qc, tuple("u%d" % i for i in range(n)))
        for _ in range(rng.randint(1, 4)):
            row = [c * rng.randint(-2, 2) + rng.randint(-3, 3) for _ in range(n)]
            sys.add_row(row, Qc.zero)
        for v in nullspace(sys):
            for coeffs, _ in sys.rows:
                acc = Qc.zero
                for a, b in zip(coeffs, v):
                    acc = acc + a * b
                assert acc.is_zero


def test_linear_system_row_hygiene():
    F = scalar_field(())
    sys = LinearSystem(F, ("x",))
    sys.add_row([F.zero], F.zero)   # dropped
    assert sys.rows == []
    sys.add_row([F.one], F.one)
    assert not sys.is_homogeneous()
    with pytest.raises(ScalarError):
        sys.add_row([F.one, F.one], F.zero)


# -- the representation stays in scalars.py ------------------------------------

def test_sympy_and_raw_access_only_in_scalars():
    src = Path(__file__).resolve().parent.parent / "src" / "nlca"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                mods = []
            if any(m.split(".")[0] == "sympy" for m in mods):
                found.append("%s:%d: imports sympy" % (path.name, node.lineno))
            if isinstance(node, ast.Attribute) and node.attr in ("raw", "_field"):
                found.append("%s:%d: .%s" % (path.name, node.lineno, node.attr))
    assert found == []
