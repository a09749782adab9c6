"""End-to-end acceptance runs, one test per criterion.

Each test prints a single `criterion N ...: pass` line on success (visible
with -s); a failure shows up as the usual pytest failure for that line.
Random suites are seeded, so every run exercises the same instances.
"""

import random
import time
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

from nlca.algebra import Presentation, apply_T
from nlca.ansatz import extract_system, solve_and_substitute
from nlca.calculus import Engine
from nlca.cli import main
from nlca.frontend import load_bundled, parse_source, render_presentation
from nlca.pbw import Reducer, character
from nlca.scalars import nullspace, scalar_field

from builders import (BUILDERS, _w3_table, degree, make_virasoro, make_w3,
                      make_w3_ansatz, same_presentation)

FIVE = ("virasoro", "free_boson", "free_fermion", "affine_sl2", "w3")
GOLDEN = Path(__file__).parent / "golden"


def bundled_path(name):
    return str(files("nlca") / "algebras" / ("%s.nlca" % name))


def done(n, what):
    print("criterion %d (%s): pass" % (n, what))


def test_criterion_1_w3_checks_out(capsys):
    t0 = time.perf_counter()
    code = main(["check", bundled_path("w3")])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "all checks passed"
    assert elapsed < 60.0
    with capsys.disabled():
        done(1, "w3 bracket table verifies end to end in %.1fs" % elapsed)


def test_criterion_2_jacobi_holds_only_modulo_kernel(capsys):
    p = make_w3()
    e = Engine(p)
    c = p.field.param("c")
    alpha = 16 / (22 + 5 * c)
    j = e.jacobiator(p.gen("W"), p.gen("W"), p.gen("L"))
    assert not j.is_zero
    # the tensor obstruction: alpha*(lambda - mu)*(L (x) TL - TL (x) L),
    # which no rearrangement of single-generator terms can cancel
    lam = j.coeff((1, 0))
    assert lam.terms[p.mono("L", ("L", 1))] == alpha
    assert lam.terms[p.mono(("L", 1), "L")] == -alpha
    mu = j.coeff((0, 1))
    assert mu.terms[p.mono("L", ("L", 1))] == -alpha
    assert mu.terms[p.mono(("L", 1), "L")] == alpha
    assert Reducer(e).normal_order_lpoly(j).is_zero
    with capsys.disabled():
        done(2, "jacobiator nonzero raw, zero after normal ordering")


def test_criterion_3_ansatz_recovers_structure_constants(capsys):
    p = make_w3_ansatz()
    system = extract_system(p, triples=[("W", "W", "L")])
    basis = nullspace(system)
    assert len(basis) == 1
    res = solve_and_substitute(p, system, ("delta", Fraction(1, 6)))
    f = scalar_field(("c",))
    c = f.param("c")
    assert res.values["alpha"] == 16 / (22 + 5 * c)
    assert res.values["beta"] == f.zero
    assert res.values["gamma"] == (c - 10) / (3 * (22 + 5 * c))
    assert res.values["epsilon"] == c / 360
    # the cubic (W, W, W) identity comes along automatically
    assert res.report.ok
    with capsys.disabled():
        done(3, "pinned ansatz yields the classical constants and verifies")


def count_partitions(n, min_part):
    """Partitions of n into integer parts >= min_part, by direct recursion."""
    if n == 0:
        return 1
    total = 0
    for k in range(min_part, n + 1):
        total += count_partitions(n - k, k)
    return total


def test_criterion_4_characters_match_partition_oracles(capsys):
    vir = character(make_virasoro(), 10)
    got = [vir[Fraction(w)] for w in range(11)]
    assert got == [count_partitions(w, 2) for w in range(11)]
    assert got == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12]

    boson = character(BUILDERS["free_boson"](), 10)
    got = [boson[Fraction(w)] for w in range(11)]
    assert got == [count_partitions(w, 1) for w in range(11)]
    assert got == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    with capsys.disabled():
        done(4, "graded dimensions equal brute-force partition counts")


def test_criterion_5_normal_order_kills_every_defect(capsys):
    from randgen import random_mono, random_single, random_tensor
    t_all = time.perf_counter()
    for name in FIVE:
        pres = BUILDERS[name]()
        engine = Engine(pres)
        red = Reducer(engine)
        rng = random.Random(20260823)
        for _ in range(100):
            a = random_single(pres, rng)
            b = random_single(pres, rng)
            c = random_single(pres, rng)
            A = random_tensor(pres, rng, terms=1, max_factors=1)
            C = random_tensor(pres, rng, max_factors=2)
            D = random_tensor(pres, rng, max_factors=2)
            rb = random_mono(pres, rng, 1, False)[0]
            rc = random_mono(pres, rng, 1, False)[0]
            assert red.normal_order(engine.m_element(A, rb, rc, D)).is_zero
            assert red.normal_order_lpoly(
                engine.structure_defect("sl", C, D)).is_zero
            assert red.normal_order(
                engine.structure_defect("sn", a, b, C)).is_zero
            assert red.normal_order_lpoly(
                engine.structure_defect("wl", a, c, D)).is_zero
            assert red.normal_order_lpoly(
                engine.structure_defect("wr", A, b, c)).is_zero
            assert red.normal_order(
                engine.structure_defect("q", a, C, D)).is_zero
            for X in engine.jacobiator(a, b, c).terms.values():
                assert red.normal_order(X).is_zero
            y = red.normal_order(random_tensor(pres, rng, 2, 3))
            assert red.normal_order(y) == y
        # the monitor was live: any broken descent would have raised
        assert red.descent_checks > 0
    with capsys.disabled():
        done(5, "sigma annihilates all structure defects, %d instances "
                "in %.1fs" % (500, time.perf_counter() - t_all))


def test_criterion_6_calculus_identities_at_volume(capsys):
    from randgen import random_tensor
    t_all = time.perf_counter()
    for name in FIVE:
        pres = BUILDERS[name]()
        engine = Engine(pres)
        rng = random.Random(20260824)
        for _ in range(100):
            x = random_tensor(pres, rng)
            y = random_tensor(pres, rng)
            dx, dy = degree(x), degree(y)
            prod = engine.nprod(x, y)
            assert engine.nprod(apply_T(x), y) + \
                engine.nprod(x, apply_T(y)) == apply_T(prod)
            br = engine.pbracket(x, y)
            assert engine.pbracket(apply_T(x), y) == -br.shift("lambda", 1)
            assert engine.pbracket(x, apply_T(y)) == \
                br.shift("lambda", 1) + br.map_coeffs(apply_T)
            if dx is not None and dy is not None:
                for mono in prod.terms:
                    assert pres.mono_degree(mono) <= dx + dy
                for X in br.terms.values():
                    for mono in X.terms:
                        assert pres.mono_degree(mono) < dx + dy
    with capsys.disabled():
        done(6, "derivation/sesquilinearity and degree bounds on 500 pairs "
                "in %.1fs" % (time.perf_counter() - t_all,))


def test_criterion_7_corrupted_tables_are_caught(tmp_path, capsys):
    skewed = ("param c;\n"
              "generator L parity=even degree=2 weight=2;\n"
              "bracket [L,L] = :T L: + 3*lambda*:L: + (c/12)*lambda^3*1;\n")
    f1 = tmp_path / "skewed.nlca"
    f1.write_text(skewed)
    code = main(["check", str(f1)])
    out1 = capsys.readouterr().out
    assert code == 1
    assert "skew       fail" in out1
    assert "witness [L, L]: -:T L:" in out1

    p = Presentation([("L", 0, 2, 2), ("W", 0, 3, 3)], params=("c",),
                     name="w3_perturbed")
    c = p.field.param("c")
    alpha = 16 / (22 + 5 * c)
    _w3_table(p, alpha + 1, p.field.zero, (c - 10) / (3 * (22 + 5 * c)),
              p.field.convert(Fraction(1, 6)), c / 360)
    f2 = tmp_path / "perturbed.nlca"
    f2.write_text(render_presentation(p))
    code = main(["check", str(f2)])
    out2 = capsys.readouterr().out
    assert code == 1
    assert "skew       pass" in out2
    assert "jacobi     fail" in out2
    assert "witness [" in out2
    with capsys.disabled():
        done(7, "both mutated tables rejected with witnesses, exit 1")


def test_criterion_8_round_trip_and_golden_reports(capsys):
    for name in BUILDERS:
        p = load_bundled(name)
        text = render_presentation(p)
        again = parse_source(text)
        assert same_presentation(p, again), name
        assert render_presentation(again) == text, name
    for name in FIVE:
        code = main(["check", bundled_path(name), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / ("check_%s.json" % name)).read_text(), name
    code = main(["solve", bundled_path("w3_ansatz"),
                 "--pin", "delta=1/6", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "solve_w3_ansatz.json").read_text()
    with capsys.disabled():
        done(8, "files round-trip and reports match the golden copies")
