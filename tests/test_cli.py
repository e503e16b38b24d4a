"""Front-end behaviour: grammar, golden outputs, exit codes, determinism."""

import json
import subprocess
import sys

import pytest
from support import random_element, random_scalar, random_tangle, seeded

from bigon.cli import (
    ExpressionError,
    format_leg_terms,
    main,
    parse_braided,
    parse_expression,
    parse_leg_terms,
)
from bigon.braided import BraidedElement, braided_product
from bigon.hopf import OqElement, element_to_string, multiply
from bigon.ring import format_qform, half, parse_vform, q_power
from bigon.tangle import format_tangle_word, parse_tangle_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------


def test_parse_golden_examples():
    assert parse_expression("c*a") == OqElement.from_word("ac", q_power(2))
    assert parse_expression("q^2") == OqElement.from_word("", q_power(2))
    a, d = OqElement.from_word("a"), OqElement.from_word("d")
    assert parse_expression("a*(d - 1)") == multiply(a, d) - a


def test_parse_powers_and_unary_minus():
    assert parse_expression("v^-3") == OqElement.from_word("", half(-3))
    assert parse_expression("-a + a") == OqElement()
    assert parse_expression("a^2") == multiply(OqElement.from_word("a"), OqElement.from_word("a"))
    assert parse_expression("2*q^-1*b") == OqElement.from_word("b", q_power(-1, 2))


def test_parse_errors_carry_positions():
    with pytest.raises(ExpressionError) as err:
        parse_expression("a + e")
    assert err.value.pos == 4
    with pytest.raises(ExpressionError):
        parse_expression("a*")
    with pytest.raises(ExpressionError):
        parse_expression("(a")
    with pytest.raises(ExpressionError):
        parse_expression("a b")
    with pytest.raises(ExpressionError):
        parse_expression("a^-1")
    with pytest.raises(ExpressionError):
        parse_expression("a$b")


def test_expression_round_trip():
    rng = seeded(17)
    for _ in range(50):
        x = random_element(rng, 3, n_terms=3)
        text = element_to_string(x)
        assert element_to_string(parse_expression(text)) == text


def test_scalar_round_trip():
    rng = seeded(18)
    for _ in range(50):
        s = random_scalar(rng) + random_scalar(rng)
        assert parse_vform(format_qform(s)) == s


def test_tangle_word_round_trip():
    rng = seeded(19)
    for _ in range(50):
        t = random_tangle(rng)
        text = format_tangle_word(t.slices, len(t.left_states))
        slices, _ = parse_tangle_word(text)
        assert format_tangle_word(slices) == text


def test_leg_terms_round_trip():
    rng = seeded(20)
    for _ in range(30):
        legs_x = tuple("a" * rng.randint(0, 2) for _ in range(2))
        legs_y = tuple("b" * rng.randint(0, 2) for _ in range(2))
        x = BraidedElement.from_legs(legs_x, random_scalar(rng))
        y = BraidedElement.from_legs(legs_y, random_scalar(rng))
        z = braided_product(x, y)
        text = format_leg_terms(z.terms)
        assert format_leg_terms(parse_leg_terms(text)) == text
    assert parse_leg_terms("0") == {}
    with pytest.raises(ExpressionError):
        parse_leg_terms("(a|b) (c|d)")
    with pytest.raises(ExpressionError):
        parse_braided("(a|b) + (c)")


# ---------------------------------------------------------------------------
# subcommands and exit codes
# ---------------------------------------------------------------------------


def test_normal_form_golden(capsys):
    code, out, _ = run_cli(capsys, "normal-form", "b*c")
    assert code == 0
    assert out == "q^2*a*d - q^2\n"


def test_tangle_eval_golden(capsys):
    code, out, _ = run_cli(capsys, "tangle", "eval", "--word", "cup@0;cap@0")
    assert code == 0
    assert out == "-q^2 - q^-2\n"


def test_tangle_element(capsys):
    code, out, _ = run_cli(
        capsys, "tangle", "element", "--word", "id1", "--left", "+", "--right", "+"
    )
    assert code == 0
    assert out == "a\n"


def test_tangle_missing_states_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "tangle", "eval", "--word", "id2")
    assert code == 1 and "--left" in err


def test_tangle_bad_word_is_parse_error(capsys):
    code, _, _ = run_cli(capsys, "tangle", "eval", "--word", "zap@0")
    assert code == 2
    code, _, _ = run_cli(capsys, "tangle", "eval", "--word", "cap@x")
    assert code == 2


def test_hopf_subcommand(capsys):
    code, out, _ = run_cli(capsys, "hopf", "coproduct", "--expr", "b")
    assert code == 0 and out == "(a|b) + (b|d)\n"
    code, out, _ = run_cli(capsys, "hopf", "antipode", "--expr", "b")
    assert code == 0 and out == "-q^2*b\n"
    code, out, _ = run_cli(capsys, "hopf", "counit", "--expr", "a*d")
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(capsys, "hopf", "rho", "--left", "b", "--right", "c")
    assert code == 0 and out == "q - q^-3\n"
    code, _, _ = run_cli(capsys, "hopf", "coproduct")
    assert code == 2


def test_braided_subcommand(capsys):
    code, out, _ = run_cli(capsys, "braided", "--x", "(|a)", "--y", "(a|)")
    assert code == 0 and out == "q*(a|a)\n"
    code, out, _ = run_cli(capsys, "braided", "--x", "(|a)", "--y", "(a|)", "--variant", "mirror")
    assert code == 0 and out == "q^-1*(a|a)\n"
    code, _, _ = run_cli(capsys, "braided", "--x", "(a|)", "--y", "(a)")
    assert code == 1  # arity mismatch is a domain error
    code, _, _ = run_cli(capsys, "braided", "--x", "(a|", "--y", "(a|)")
    assert code == 2


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["normal-form", "a", "--bogus"])
    assert err.value.code == 2
    capsys.readouterr()


def test_expression_error_exits_two(capsys):
    code, _, err = run_cli(capsys, "normal-form", "a + e")
    assert code == 2 and "position" in err


def test_too_deep_rewriting_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "normal-form", "d^40*a^40")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# file-driven subcommands
# ---------------------------------------------------------------------------


SQUARE = {
    "faces": [{"id": "F0", "sides": [0, 1, 2]}, {"id": "F1", "sides": [0, 1, 2]}],
    "gluings": [["F0", 2, "F1", 2]],
}
ARC = {
    "steps": [
        {"face": "F0", "enter": 1, "exit": 2},
        {"face": "F1", "enter": 2, "exit": 1},
    ],
    "closed": False,
    "states": "++",
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_qtrace_files(capsys, tmp_path):
    surface = _write(tmp_path, "tri.json", SQUARE)
    curve = _write(tmp_path, "arc.json", ARC)
    code, out, _ = run_cli(capsys, "qtrace", "--surface", surface, "--curve", curve)
    assert code == 0
    assert out == "q * x^(0,1,1,0,1,1)\n"
    code, out, _ = run_cli(capsys, "qtrace", "--surface", surface, "--curve", curve, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"coefficient": "q", "exponents": [0, 1, 1, 0, 1, 1]}]


def test_qtrace_bad_files(capsys, tmp_path):
    surface = _write(tmp_path, "tri.json", SQUARE)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "qtrace", "--surface", surface, "--curve", str(bad))
    assert code == 2
    missing = _write(tmp_path, "missing.json", {"nope": 1})
    code, _, _ = run_cli(capsys, "qtrace", "--surface", surface, "--curve", missing)
    assert code == 2
    # structurally valid JSON but an illegal curve
    off = _write(
        tmp_path, "off.json", {"steps": [{"face": "F0", "enter": 1, "exit": 1}], "closed": True}
    )
    code, _, _ = run_cli(capsys, "qtrace", "--surface", surface, "--curve", off)
    assert code == 1


REP = {"generators": {"g": [["2", "3"], ["1", "2"]]}}


def test_classical_files(capsys, tmp_path):
    rep = _write(tmp_path, "rep.json", REP)
    path = _write(tmp_path, "arc.json", {"word": ["g"], "states": "+-", "closed": False})
    code, out, _ = run_cli(capsys, "classical", "trace", "--rep", rep, "--path", path)
    assert code == 0 and out == "-2\n"
    loop = _write(tmp_path, "loop.json", {"word": ["g"], "closed": True})
    code, out, _ = run_cli(capsys, "classical", "trace", "--rep", rep, "--path", loop)
    assert code == 0 and out == "4\n"
    cut = _write(
        tmp_path, "cut.json", {"word": ["g", "CUT", "g"], "states": "++", "closed": False}
    )
    code, out, _ = run_cli(capsys, "classical", "cut", "--rep", rep, "--path", cut)
    assert code == 0
    spliced = _write(
        tmp_path, "spliced.json", {"word": ["g", "sqrtO-", "g"], "states": "++", "closed": False}
    )
    code, out2, _ = run_cli(capsys, "classical", "trace", "--rep", rep, "--path", spliced)
    assert code == 0 and out == out2


def test_classical_domain_error(capsys, tmp_path):
    rep = _write(tmp_path, "rep.json", REP)
    path = _write(tmp_path, "arc.json", {"word": ["h"], "states": "++", "closed": False})
    code, _, _ = run_cli(capsys, "classical", "trace", "--rep", rep, "--path", path)
    assert code == 1


# ---------------------------------------------------------------------------
# determinism and selftest
# ---------------------------------------------------------------------------


def test_json_output_is_sorted_and_stable(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "normal-form", "b*c", "--json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["text"] == "q^2*a*d - q^2"
    assert [t["word"] for t in payload["terms"]] == ["", "ad"]


def test_subprocess_byte_determinism():
    cmd = [sys.executable, "-m", "bigon.cli", "hopf", "coproduct", "--expr", "b*c", "--json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout and first.stdout


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "0 failed" in out.splitlines()[-1]
    assert all(line.startswith("ok") for line in out.splitlines()[:-1])
