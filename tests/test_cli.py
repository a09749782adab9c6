"""Command line behaviour, exit codes, and stable JSON output."""

import decimal
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import nlca
from nlca.algebra import Presentation
from nlca.cli import _build_parser, main
from nlca.formal import render_lpoly
from nlca.frontend import MAX_WORD, parse_expression, render_presentation

from builders import _w3_table

GOLDEN = Path(__file__).parent / "golden"
CHECKED = ("virasoro", "free_boson", "free_fermion", "affine_sl2", "w3")


def bundled_path(name):
    return str(files("nlca") / "algebras" / ("%s.nlca" % name))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check -------------------------------------------------------------------

def test_check_human(capsys):
    code, out, err = run(capsys, ["check", bundled_path("virasoro")])
    assert code == 0
    lines = out.splitlines()
    assert [ln.split()[0] for ln in lines[:5]] == \
        ["validate", "skew", "weights", "grading", "jacobi"]
    assert all(ln.split()[1] == "pass" for ln in lines[:5])
    assert lines[-1] == "all checks passed"
    assert err == ""


def test_check_json_matches_golden(capsys):
    for name in CHECKED:
        code, out, err = run(capsys, ["check", bundled_path(name), "--json"])
        assert code == 0, name
        assert out == (GOLDEN / ("check_%s.json" % name)).read_text(), name


def test_check_json_of_invalid_tables_matches_golden(capsys):
    # bad_rules breaks the degree, parity and weight rules, bad_ansatz the
    # rules on unknowns and the degree rule; w3_perturbed fails Jacobi, the
    # one kind of table whose normal forms depend on the rewrite order
    for name in ("bad_rules", "bad_ansatz", "w3_perturbed"):
        path = str(GOLDEN / ("%s.nlca" % name))
        code, out, err = run(capsys, ["check", path, "--json"])
        assert code == 1, name
        assert out == (GOLDEN / ("check_%s.json" % name)).read_text(), name


def test_check_super_virasoro(tmp_path, capsys):
    # G is odd, so skewsymmetry fixes the even lambda-powers of [G G]; with
    # c/6 in place of c/3 the central terms of Jacobi no longer cancel
    path = GOLDEN / "super_virasoro.nlca"
    code, out, err = run(capsys, ["check", str(path), "--json"])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "check_super_virasoro.json").read_text()
    f = tmp_path / "sixth.nlca"
    f.write_text(path.read_text().replace("(c/3)", "(c/6)"))
    code, out, err = run(capsys, ["check", str(f)])
    assert code == 1
    assert "skew       pass" in out and "jacobi     fail" in out
    assert "witness [G, G, L]" in out


def test_check_ansatz_file_fails(capsys):
    code, out, err = run(capsys, ["check", bundled_path("w3_ansatz")])
    assert code == 1
    assert out.splitlines()[-1] == "FAILED: 1 check(s)"
    assert "jacobi     fail" in out
    # the witness list is the symbolic relation system on the unknowns
    assert "witness [W, W, L]" in out


def test_check_broken_skew_file(tmp_path, capsys):
    src = ("param c;\n"
           "generator L parity=even degree=2 weight=2;\n"
           "bracket [L,L] = :T L: + 3*lambda*:L: + (c/12)*lambda^3*1;\n")
    f = tmp_path / "bad.nlca"
    f.write_text(src)
    code, out, err = run(capsys, ["check", str(f)])
    assert code == 1
    assert "skew       fail" in out
    assert "witness [L, L]: -:T L:" in out
    code, out, err = run(capsys, ["check", str(f), "--json"])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_check_both_orientations(tmp_path, capsys):
    src = ("generator a parity=even degree=1 weight=1;\n"
           "generator b parity=even degree=1 weight=1;\n"
           "bracket [a,b] = lambda*1;\n"
           "bracket [b,a] = %s*1;\n")
    f = tmp_path / "pair.nlca"
    f.write_text(src % "lambda")
    code, out, err = run(capsys, ["check", str(f)])
    assert (code, out.splitlines()[-1], err) == (0, "all checks passed", "")
    f.write_text(src % "2*lambda")
    code, out, err = run(capsys, ["check", str(f)])
    assert code == 1
    assert "skew       fail" in out
    assert "    witness [a, b]: -lambda*1\n    witness [b, a]: lambda*1\n" in out


def test_check_perturbed_structure_constant(tmp_path, capsys):
    p = Presentation([("L", 0, 2, 2), ("W", 0, 3, 3)], params=("c",),
                     name="w3_perturbed")
    c = p.field.param("c")
    alpha = 16 / (22 + 5 * c)
    _w3_table(p, alpha + 1, p.field.zero, (c - 10) / (3 * (22 + 5 * c)),
              p.field.convert(Fraction(1, 6)), c / 360)
    f = tmp_path / "w3_perturbed.nlca"
    f.write_text(render_presentation(p))
    code, out, err = run(capsys, ["check", str(f)])
    assert code == 1
    assert "skew       pass" in out
    assert "jacobi     fail" in out
    assert "witness [" in out


def test_check_exponent_limit(tmp_path):
    # one past the limit is a located diagnostic and exit 2, not a traceback
    gen = "generator L parity=even degree=2;\n"
    env = dict(os.environ, PYTHONPATH=str(Path(nlca.__file__).parent.parent))
    for power, code in ((101, 2), (100, 1)):
        f = tmp_path / ("pow%d.nlca" % power)
        f.write_text(gen + "bracket [L,L] = lambda^%d*1;\n" % power)
        proc = subprocess.run([sys.executable, "-m", "nlca", "check", str(f)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 2:
            assert proc.stderr == \
                "%s:2:24: exponent 101 exceeds the limit 100\n" % f
        else:
            assert "witness [L, L]: 2*lambda^100*1" in proc.stdout


def test_check_integer_literal_limit(tmp_path):
    # past Python's int-string limit a literal is a located diagnostic
    env = dict(os.environ, PYTHONPATH=str(Path(nlca.__file__).parent.parent))
    for digits, code in ((4301, 2), (4300, 0)):
        f = tmp_path / ("big%d.nlca" % digits)
        f.write_text("generator L parity=even degree=2 weight=2;\n"
                     "bracket [L,L] = %s*lambda^3*1;\n" % ("7" * digits))
        proc = subprocess.run([sys.executable, "-m", "nlca", "check", str(f)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == code, proc.stderr
        if code == 2:
            assert proc.stderr == ("%s:2:17: integer of 4301 digits exceeds "
                                   "the limit 4300\n" % f)
        else:
            assert proc.stderr == ""


def test_check_integer_literal_under_low_digit_limit(tmp_path):
    # literals are read in chunks, so Python's smallest int-string limit
    # changes nothing: same output as under the default limit
    f = tmp_path / "big.nlca"
    f.write_text("generator L parity=even degree=2 weight=2;\n"
                 "bracket [L,L] = %s*lambda^3*1;\n" % ("7" * 1000))
    outs = []
    for limit in ("4300", "640"):
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS=limit,
                   PYTHONPATH=str(Path(nlca.__file__).parent.parent))
        for cmd in (["check", str(f), "--json"], ["ope", str(f), "L", "L"]):
            proc = subprocess.run([sys.executable, "-m", "nlca"] + cmd,
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            outs.append(proc.stdout)
    assert outs[2:] == outs[:2]
    assert outs[1] == "7" * 1000 + "*lambda^3*1\n"


# -- ope / reduce ------------------------------------------------------------

def test_ope_renders_long_coefficients(tmp_path):
    # (99999^100)^100 has 50,000 digits, past Python's int-string limit
    env = dict(os.environ, PYTHONPATH=str(Path(nlca.__file__).parent.parent))
    f = tmp_path / "tower.nlca"
    f.write_text("generator L parity=even degree=2 weight=2;\n"
                 "bracket [L,L] = (99999^100)^100*lambda^3*1;\n")
    proc = subprocess.run([sys.executable, "-m", "nlca", "ope", str(f),
                           "L", "L"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    digits = str(decimal.Decimal(99999 ** 10000))
    assert len(digits) == 50000
    assert proc.stdout == digits + "*lambda^3*1\n"


def test_invalid_table_stops_every_command(capsys):
    # one stderr line per validate() note, nothing on stdout
    path = str(GOLDEN / "bad_rules.nlca")
    notes = json.loads((GOLDEN / "check_bad_rules.json").read_text())
    notes = notes["results"][0]["notes"]
    assert len(notes) == 7
    want = "".join("invalid presentation: %s\n" % n for n in notes)
    for argv in (["ope", path, "L", "L"], ["reduce", path, ":L L:"],
                 ["basis", path, "--weight", "4"],
                 ["character", path, "--max-weight", "4"]):
        assert run(capsys, argv) == (1, "", want), argv[0]


def test_ope_human(capsys):
    code, out, err = run(capsys,
                         ["ope", bundled_path("virasoro"), "L", "L"])
    assert code == 0
    assert out == ":T L: + 2*lambda*:L: + c/12*lambda^3*1\n"


def test_ope_json(capsys):
    code, out, err = run(capsys,
                         ["ope", bundled_path("virasoro"), "L", "L", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "presentation": "virasoro",
        "variable": "lambda",
        "terms": [
            {"power": 0, "value": ":T L:"},
            {"power": 1, "value": "2*:L:"},
            {"power": 3, "value": "c/12*1"},
        ],
    }


def test_ope_reduce_matches_api(capsys, virasoro, engines, reducers):
    code, out, err = run(capsys, ["ope", bundled_path("virasoro"),
                                  ":L L:", "L", "--reduce"])
    assert code == 0
    p, e = virasoro, engines["virasoro"]
    want = reducers["virasoro"].normal_order_lpoly(
        e.pbracket(parse_expression(p, ":L L:"), parse_expression(p, "L")))
    assert out == render_lpoly(want) + "\n"


def test_ope_undeclared_operand(capsys):
    code, out, err = run(capsys, ["ope", bundled_path("virasoro"), "L", "M"])
    assert code == 2
    assert "'M' is not a declared scalar or generator" in err


def test_reduce(capsys):
    code, out, err = run(capsys,
                         ["reduce", bundled_path("virasoro"), ":T L L:"])
    assert code == 0
    assert out == "-1/6*:T^3 L: + :L T L:\n"
    code, out, err = run(capsys, ["reduce", bundled_path("virasoro"),
                                  ":T L L:", "--json"])
    assert code == 0
    assert json.loads(out) == {"presentation": "virasoro",
                               "value": "-1/6*:T^3 L: + :L T L:"}
    # a polynomial coefficient keeps the sign of each of its terms
    code, out, err = run(capsys, ["reduce", bundled_path("virasoro"),
                                  "(-5*c - 6)*:L L:"])
    assert code == 0
    assert out == "-(5*c + 6)*:L L:\n"


def test_reduce_long_reversed_word():
    # 61 factors in reverse order: a swap chain of 1,830 rewrites
    env = dict(os.environ, PYTHONPATH=str(Path(nlca.__file__).parent.parent))
    word = ["T^%d a" % n for n in range(60, 1, -1)] + ["T a", "a"]
    proc = subprocess.run(
        [sys.executable, "-m", "nlca", "reduce", bundled_path("free_boson"),
         ":%s:" % " ".join(word)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ":%s:\n" % " ".join(reversed(word))


def test_word_limit(tmp_path):
    # at the cap, a single-operand ope and a reversed-word reduce finish in a
    # fresh process, under the default recursion limit; one factor more is a
    # located diagnostic and exit 2, in an operand and in a file
    env = dict(os.environ, PYTHONPATH=str(Path(nlca.__file__).parent.parent))

    def nlca_run(*argv):
        return subprocess.run([sys.executable, "-m", "nlca", *argv],
                              capture_output=True, text=True, env=env)
    boson = bundled_path("free_boson")
    word = ":%s:" % " ".join(["a"] * MAX_WORD)
    proc = nlca_run("ope", boson, word, "a")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("+ %d*lambda*:%s:\n"
                                % (MAX_WORD, " ".join(["a"] * (MAX_WORD - 1))))
    rev = ["T^%d a" % n for n in range(MAX_WORD - 1, 1, -1)] + ["T a", "a"]
    proc = nlca_run("reduce", boson, ":%s:" % " ".join(rev))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ":%s:\n" % " ".join(reversed(rev))
    over = word[:-1] + " a:"
    proc = nlca_run("ope", boson, "a", over)
    assert (proc.returncode, proc.stderr) == (
        2, "<b>:1:%d: word exceeds the limit of %d factors\n"
        % (2 * MAX_WORD + 2, MAX_WORD))
    f = tmp_path / "long.nlca"
    f.write_text("generator a parity=even degree=1 weight=1;\n"
                 "bracket [a,a] = lambda*%s;\n" % over)
    proc = nlca_run("check", str(f))
    assert (proc.returncode, proc.stderr) == (
        2, "%s:2:%d: word exceeds the limit of %d factors\n"
        % (f, 2 * MAX_WORD + 25, MAX_WORD))


def test_reduce_rejects_lambda(capsys):
    code, out, err = run(capsys,
                         ["reduce", bundled_path("virasoro"), "lambda*:L:"])
    assert code == 2
    assert "lambda is not allowed" in err


# -- basis / character -------------------------------------------------------

def test_basis(capsys):
    code, out, err = run(capsys, ["basis", bundled_path("virasoro"),
                                  "--weight", "6"])
    assert code == 0
    assert out.splitlines() == [":L L L:", ":L T^2 L:", ":T L T L:",
                                ":T^4 L:"]
    code, out, err = run(capsys, ["basis", bundled_path("free_fermion"),
                                  "--weight", "5/2"])
    assert code == 0
    assert out == ":T^2 phi:\n"


def test_basis_json(capsys):
    code, out, err = run(capsys, ["basis", bundled_path("virasoro"),
                                  "--weight", "6", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "presentation": "virasoro",
        "weight": "6",
        "dimension": 4,
        "basis": [":L L L:", ":L T^2 L:", ":T L T L:", ":T^4 L:"],
    }


def test_basis_limits(capsys):
    code, out, err = run(capsys, ["basis", bundled_path("virasoro"),
                                  "--weight", "100000"])
    assert (code, out) == (2, "")
    assert err == ("error: basis at weight 100000 needs 100000 weight "
                   "steps, past the limit 2000\n")
    code, out, err = run(capsys, ["basis", bundled_path("virasoro"),
                                  "--weight", "60"])
    assert (code, out) == (2, "")
    assert err == "error: basis at weight 60 has more than 100000 monomials\n"
    code, out, err = run(capsys, ["basis", bundled_path("affine_sl2"),
                                  "--weight", "10"])
    assert code == 0
    assert len(out.splitlines()) == 2640


def test_character_documented_line(capsys):
    code, out, err = run(capsys, ["character", bundled_path("virasoro"),
                                  "--max-weight", "6"])
    assert code == 0
    assert out == "0:1 1:0 2:1 3:1 4:2 5:2 6:4\n"
    code, out, err = run(capsys, ["character", bundled_path("free_fermion"),
                                  "--max-weight", "3"])
    assert code == 0
    assert out == "0:1 1/2:1 1:0 3/2:1 2:1 5/2:1 3:1\n"


def test_character_large_weight(capsys):
    code, out, err = run(capsys, ["character", bundled_path("affine_sl2"),
                                  "--max-weight", "40"])
    assert code == 0
    assert out.split()[-1].startswith("40:")


def test_character_weight_limit(capsys):
    code, out, err = run(capsys, ["character", bundled_path("virasoro"),
                                  "--max-weight", "1000000000"])
    assert code == 2
    assert out == ""
    assert err == ("error: character to weight 1000000000 needs 1000000000 "
                   "weight steps, past the limit 2000\n")


def test_character_json(capsys):
    code, out, err = run(capsys, ["character", bundled_path("virasoro"),
                                  "--max-weight", "4", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "presentation": "virasoro",
        "max_weight": "4",
        "character": [
            {"weight": "0", "dimension": 1},
            {"weight": "1", "dimension": 0},
            {"weight": "2", "dimension": 1},
            {"weight": "3", "dimension": 1},
            {"weight": "4", "dimension": 2},
        ],
    }


def test_weight_arguments_are_bounded(capsys, tmp_path):
    # exponents would build their power of ten before any bound looks
    for cmd, flag in (("basis", "--weight"), ("character", "--max-weight")):
        for text in ("1e999999999", "1e5000", "1e-5000", "2E3", "1" * 4301):
            code, out, err = run(capsys, [cmd, bundled_path("virasoro"),
                                          flag, text])
            assert (code, out) == (2, ""), text
            assert err == ("error: %s must be a rational number, got %r\n"
                           % (flag, text))
    code, out, err = run(capsys, ["character", bundled_path("virasoro"),
                                  "--max-weight", "2.5"])
    assert (code, out) == (0, "0:1 1:0 2:1\n")
    # a limit message renders an integer of any length
    f = tmp_path / "fine.nlca"
    f.write_text("generator x parity=even degree=1 weight=1/1%s;\n"
                 % ("0" * 4299))
    for cmd, what in (("character", "character to weight 10"),
                      ("basis", "basis at weight 10")):
        code, out, err = run(capsys, [cmd, str(f), "--" + (
            "max-weight" if cmd == "character" else "weight"), "10"])
        assert (code, out) == (2, "")
        assert err == ("error: %s needs 1%s weight steps, past the limit "
                       "2000\n" % (what, "0" * 4300))


def test_zero_weight_refusal_names_the_command(capsys, tmp_path):
    f = tmp_path / "zero.nlca"
    f.write_text("generator x parity=even degree=1 weight=0;\n")
    # the weights are checked before a negative weight gives an empty answer
    for weight in ("1", "-1"):
        code, out, err = run(capsys, ["basis", str(f), "--weight", weight])
        assert (code, out, err) == (1, "", "error: basis enumeration needs "
                                    "strictly positive weights\n")
        code, out, err = run(capsys,
                             ["character", str(f), "--max-weight", weight])
        assert (code, out, err) == (
            1, "", "error: character needs strictly positive weights\n")


def test_cache_limit_variable():
    path = bundled_path("virasoro")
    for value, code in (("abc", 2), ("-1", 2), ("1e3", 2), ("", 0), ("0", 0),
                        ("50", 0)):
        env = dict(os.environ, NLCA_CACHE_LIMIT=value,
                   PYTHONPATH=str(Path(nlca.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-m", "nlca", "check", path],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == code, (value, proc.stderr)
        if code:
            assert proc.stdout == ""
            assert proc.stderr == ("error: NLCA_CACHE_LIMIT must be empty or "
                                   "a non-negative integer below 10^18\n")
        else:
            assert proc.stdout.splitlines()[-1] == "all checks passed"


# -- solve -------------------------------------------------------------------

def test_solve_human(capsys):
    code, out, err = run(capsys, ["solve", bundled_path("w3_ansatz"),
                                  "--pin", "delta=1/6"])
    assert code == 0
    assert out.splitlines() == [
        "skipped (W, W, W): jacobiator not affine in the unknowns; "
        "rechecked after substitution",
        "alpha = 16/(5*c + 22)",
        "beta = 0",
        "gamma = (c - 10)/(15*c + 66)",
        "delta = 1/6",
        "epsilon = c/360",
        "verification: all checks passed",
    ]


def test_solve_json_matches_golden(capsys):
    code, out, err = run(capsys, ["solve", bundled_path("w3_ansatz"),
                                  "--pin", "delta=1/6", "--json"])
    assert code == 0
    assert out == (GOLDEN / "solve_w3_ansatz.json").read_text()


def test_solve_explicit_triples(capsys):
    code, out, err = run(capsys, ["solve", bundled_path("w3_ansatz"),
                                  "--pin", "delta=1/6",
                                  "--triples", "W,W,L"])
    assert code == 0
    assert "skipped" not in out
    assert "alpha = 16/(5*c + 22)" in out
    code, out, err = run(capsys, ["solve", bundled_path("w3_ansatz"),
                                  "--pin", "delta=1/6",
                                  "--triples", "W,W,W"])
    assert code == 1
    assert "leaves the linear regime" in err


def test_solve_errors(capsys):
    path = bundled_path("w3_ansatz")
    code, out, err = run(capsys, ["solve", path, "--pin", "delta"])
    assert code == 2
    assert "--pin takes NAME=VALUE" in err
    code, out, err = run(capsys, ["solve", path, "--pin", "beta=1"])
    assert code == 1
    assert "beta vanishes on the solution line" in err
    code, out, err = run(capsys, ["solve", path, "--pin", "delta=c+"])
    assert code == 2
    code, out, err = run(capsys,
                         ["solve", path, "--pin", "delta=1/6",
                          "--triples", "W,W"])
    assert code == 2
    assert "--triples takes comma-separated name triples" in err
    code, out, err = run(capsys, ["solve", bundled_path("virasoro"),
                                  "--pin", "c=1"])
    assert code == 2
    assert "declares no unknowns" in err


def test_solve_refuses_a_zero_pin(capsys):
    code, out, err = run(capsys, ["solve", bundled_path("w3_ansatz"),
                                  "--pin", "delta=0"])
    assert (code, out, err) == (
        1, "", "error: pinning delta to 0 gives only the zero solution\n")


def test_solve_refusals_of_the_solution_space(capsys, tmp_path):
    code, out, err = run(capsys, ["solve", bundled_path("w3_ansatz"),
                                  "--pin", "delta=1/6", "--triples", "L,L,L"])
    assert (code, out, err) == (1, "", "error: solution space has dimension "
                                "5; a single pin cannot fix it\n")
    sl2 = tmp_path / "sl2.nlca"
    sl2.write_text(Path(bundled_path("affine_sl2")).read_text()
                   .replace("param k;", "param k;\nunknown u;")
                   .replace("[h,e] = 2*:e:;", "[h,e] = u*:e:;"))
    code, out, err = run(capsys, ["solve", str(sl2), "--pin", "u=2"])
    assert (code, out, err) == (
        1, "", "error: system has inhomogeneous rows\n")
    # Jacobi on (a, a, b) leaves u*(lambda - mu)*1, so u = 0
    zero = tmp_path / "zero.nlca"
    zero.write_text("unknown u;\n"
                    "generator a parity=even degree=1 weight=1;\n"
                    "generator b parity=even degree=1 weight=1;\n"
                    "bracket [a,a] = lambda*1;\nbracket [a,b] = u*:a:;\n")
    code, out, err = run(capsys, ["solve", str(zero), "--pin", "u=1"])
    assert (code, out, err) == (
        1, "", "error: only the zero solution satisfies the system\n")


def test_names_in_any_script(capsys, tmp_path):
    f = tmp_path / "names.nlca"
    f.write_text("param é;\nunknown x²;\n"
                 "generator Λ parity=even degree=2 weight=2;\n"
                 "bracket [Λ,Λ] = :T Λ: + 2*lambda*:Λ: + x²*lambda^3*1;\n")
    code, out, err = run(capsys, ["solve", str(f), "--pin", "x²=é/12"])
    assert (code, out, err) == (
        0, "x² = é/12\nverification: all checks passed\n", "")


def test_pin_limits(tmp_path):
    # pins share the file grammar's bounds: a located diagnostic and exit 2
    f = tmp_path / "u.nlca"
    f.write_text("param a;\nparam b;\nparam c;\nunknown u;\n"
                 "generator J parity=even degree=1 weight=1;\n"
                 "bracket [J,J] = u*lambda*1;\n")
    env = dict(os.environ, PYTHONPATH=str(Path(nlca.__file__).parent.parent))
    for pin, want in (
            ("((c+1)^100)^100", "<pin>:1:12: scalar may exceed the size "
                                "limit 1000"),
            ("(a+b+c+1)^100", "<pin>:1:10: scalar may exceed the size "
                              "limit 1000"),
            ("(" * 400 + "c" + ")" * 400, "<pin>:1:51: parentheses nested "
                                          "deeper than 50")):
        proc = subprocess.run(
            [sys.executable, "-m", "nlca", "solve", str(f), "--pin",
             "u=" + pin], capture_output=True, text=True, env=env,
            timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == want + "\n"


# -- plumbing ----------------------------------------------------------------

def test_stdin_input(capsys, monkeypatch):
    src = Path(bundled_path("virasoro")).read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(src))
    code, out, err = run(capsys, ["check", "-"])
    assert code == 0
    assert out.splitlines()[-1] == "all checks passed"


def test_usage_and_input_errors(tmp_path, capsys):
    code, out, err = run(capsys, [])
    assert code == 2
    code, out, err = run(capsys, ["bogus"])
    assert code == 2
    code, out, err = run(capsys, ["check", "no_such.nlca"])
    assert code == 2
    assert "No such file" in err
    bad = tmp_path / "bad.nlca"
    bad.write_text("generator;\n")
    code, out, err = run(capsys, ["check", str(bad)])
    assert code == 2
    assert "bad.nlca:1:" in err
    code, out, err = run(capsys, ["solve", bundled_path("w3_ansatz")])
    assert code == 2
    assert "--pin" in err


def test_closed_stdout_exits_1_quietly():
    # the reader of stdout is gone before any output: a long character
    # line fails while printing, the short check report at main's flush;
    # neither is bad input, and the flush at shutdown stays quiet
    env = dict(os.environ, PYTHONPATH=str(Path(nlca.__file__).parent.parent))
    for argv in (["character", bundled_path("virasoro"), "--max-weight",
                  "400"],
                 ["check", bundled_path("free_boson")]):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, "-m", "nlca"] + argv,
                                  stdout=w, stderr=subprocess.PIPE, env=env,
                                  timeout=120)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (1, b""), argv


def test_one_parser_serves_every_call(capsys, monkeypatch, tmp_path):
    # calls in one process print what a fresh interpreter, or the golden
    # file, prints, and the argument parser is built once
    monkeypatch.setenv("COLUMNS", "80")
    bad = tmp_path / "bad.nlca"
    bad.write_text("generator;\n")
    calls = [
        (["check", bundled_path("w3"), "--bogus"], None),
        (["check", str(bad)], None),
        (["check", bundled_path("w3"), "--json"], "check_w3.json"),
        (["character", bundled_path("virasoro"), "--max-weight", "10"],
         None),
        (["solve", bundled_path("w3_ansatz"), "--pin", "delta=1/6",
          "--json"], "solve_w3_ansatz.json"),
    ]
    _build_parser.cache_clear()
    got = [run(capsys, argv) for argv, _ in calls]
    assert _build_parser.cache_info().misses == 1
    assert [code for code, _, _ in got] == [2, 2, 0, 0, 0]
    assert got[0][2].startswith("usage: nlca ")
    assert got[0][2].endswith("unrecognized arguments: --bogus\n")
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(nlca.__file__).parent.parent))
    for (argv, golden), result in zip(calls, got):
        if golden:
            want = (0, (GOLDEN / golden).read_text(), "")
        else:
            proc = subprocess.run([sys.executable, "-m", "nlca"] + argv,
                                  capture_output=True, text=True, env=env)
            want = (proc.returncode, proc.stdout, proc.stderr)
        assert result == want, argv


def test_character_work_limit(capsys, tmp_path):
    f = tmp_path / "many.nlca"
    f.write_text("".join("generator g%d parity=even degree=1 weight=1;\n" % i
                         for i in range(50)))
    code, out, err = run(capsys, ["character", str(f), "--max-weight", "1000"])
    assert (code, out) == (2, "")
    assert err == ("error: character to weight 1000 needs 50050000 "
                   "additions, past the limit 12006000\n")
    code, out, err = run(capsys, ["basis", str(f), "--weight", "2000"])
    assert (code, out) == (2, "")
    assert err == ("error: basis at weight 2000 needs 200100000 additions, "
                   "past the limit 12006000\n")
