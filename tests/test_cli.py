"""Front-end behaviour: grammar, golden outputs, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from support import random_element, random_scalar, random_tangle, random_word, seeded
from test_hopf import _letter_fold

from bigon import cli, qtorus
from bigon.cli import (
    MAX_SIZE,
    ExpressionError,
    build_parser,
    format_leg_terms,
    main,
    parse_braided,
    parse_expression,
    parse_leg_terms,
)
from bigon.braided import BraidedElement, braided_product
from bigon.hopf import OqElement, OqTensor, coproduct, element_to_string, multiply, normal_word
from bigon.qtorus import NormalCurve, Triangulation, quantum_trace
from bigon.ring import HalfLaurent, format_qform, half, parse_vform, q_power
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


@pytest.mark.parametrize("word, n_in", [("cap@70", 72), ("cup@70", 70)])
def test_tangle_far_slice_asks_for_left_states(capsys, word, n_in):
    code, out, err = run_cli(capsys, "tangle", "eval", "--word", word)
    assert (code, out) == (1, "")
    assert err == "error: word has %d incoming strands; give --left\n" % n_in


def test_tangle_bad_word_is_parse_error(capsys):
    code, _, _ = run_cli(capsys, "tangle", "eval", "--word", "zap@0")
    assert code == 2
    code, _, _ = run_cli(capsys, "tangle", "eval", "--word", "cap@x")
    assert code == 2


def _stacked_cups(k, step=0):
    return ";".join("cup@%d" % (i * step) for i in range(k)), "+-" * k


@pytest.mark.parametrize("op", ["eval", "element"])
def test_tangle_past_the_state_budget_is_one_error_line(op):
    word, right = _stacked_cups(40)
    start = time.perf_counter()
    done = _run_subprocess("tangle", op, "--word", word, "--right", right)
    assert time.perf_counter() - start < 5
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: word may need 4096 state vectors, more than 2048\n"


@pytest.mark.parametrize("step", [0, 1])
def test_tangle_at_the_state_budget_is_answered(capsys, step):
    word, right = _stacked_cups(11, step)
    for op in ("eval", "element"):
        code, out, err = run_cli(capsys, "tangle", op, "--word", word, "--right", right)
        assert code == 0 and err == "" and len(out.splitlines()) == 1
    argv = ("tangle", "eval", "--word", word + ";cup@0", "--right", right + "+-")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "state vectors" in err


def test_tangle_element_past_the_strand_budget_is_one_error_line():
    # the lift multiplies one generator per right strand; eval is not bounded
    states = "+-" * 100
    argv = ("--word", "id200", "--left", states, "--right", states)
    start = time.perf_counter()
    done = _run_subprocess("tangle", "element", *argv)
    assert time.perf_counter() - start < 5
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: --right has 200 strands, more than 24\n"
    done = _run_subprocess("tangle", "eval", *argv)
    assert done.returncode == 0 and done.stderr == ""


def test_tangle_element_at_the_strand_budget_is_answered(capsys):
    states = "+-" * 12
    argv = ("tangle", "element", "--word", "id24", "--left", states, "--right", states)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and out.startswith("q^312*a^12*d^12 + ")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["normal-form", "a", "--bogus"],
        ["normal-form"],
        ["tangle", "eval", "--word"],
        ["tangle", "eval", "--word", "cap@0", "--left"],
        ["hopf", "split"],
    ],
)
def test_usage_error_is_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def _exit_and_output(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_parser_is_built_once_and_answers_as_a_fresh_one(capsys, monkeypatch):
    calls = [
        ["normal-form", "a^3*d^3"],
        ["normal-form", "a", "--bogus"],
        ["hopf", "coproduct", "--expr", "a*d", "--json"],
        ["normal-form", "a^3*d^3"],
    ]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.setattr(cli, "_parser", None)
    kept = [_exit_and_output(capsys, argv) for argv in calls]
    assert len(built) == 1
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(_exit_and_output(capsys, argv))
    assert len(built) == 1 + len(calls)
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0, 2, 0, 0]


def test_states_after_their_flag_may_begin_with_a_minus(capsys):
    word = ["tangle", "eval", "--word", "cap@0"]
    assert run_cli(capsys, *word, "--left", "-+") == (0, "v^-1\n", "")
    assert run_cli(capsys, *word, "--left=-+") == (0, "v^-1\n", "")
    legs = ["tangle", "element", "--word", "x+@0"]
    spaced = run_cli(capsys, *legs, "--left", "-+", "--right", "-+")
    assert spaced[0] == 0 and spaced == run_cli(capsys, *legs, "--left=-+", "--right=-+")
    # an argument that only looks like a flag's value still reaches its parser
    code, _, err = run_cli(capsys, "normal-form", "")
    assert code == 2 and "position" in err


def test_expression_error_exits_two(capsys):
    code, _, err = run_cli(capsys, "normal-form", "a + e")
    assert code == 2 and "position" in err


def test_deep_product_prints_its_normal_form(capsys):
    code, out, _ = run_cli(capsys, "normal-form", "d^40*a^40")
    assert code == 0
    assert out == str(OqElement(dict(_letter_fold("d" * 40 + "a" * 40)))) + "\n"


def test_product_past_the_swap_budget_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "normal-form", "d^41*a^40")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "swaps" in err


def test_huge_product_is_one_error_line():
    cmd = [sys.executable, "-m", "bigon.cli", "normal-form", "(a+d)^64"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("normal-form", "(q+1)^4096"),
        ("normal-form", "(q+1)^512"),
        ("braided", "--x", "(q+1)^4096*(a|)", "--y", "(|)"),
    ],
)
def test_power_shares_one_size_budget(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_power_just_inside_the_size_budget_is_answered(capsys):
    code, out, _ = run_cli(capsys, "normal-form", "(q+1)^511")
    assert code == 0 and out.count("q^") == 510


# 512 and 1024 coefficient terms, each built by products far inside the size budget
_SPARSE_A = "*".join("(1+q^%d)" % 2**k for k in range(9))
_SPARSE_B = "*".join(["(1+q^512)", "(1+q^1024)", "(1+q^2048)", "(1+q^4096)"] +
                     ["(1+(q^4096)^%d)" % 2**k for k in range(1, 7)])


@pytest.mark.parametrize("text", [
    "(%s)*(%s)" % (_SPARSE_A, _SPARSE_B),
    "(%s)^2" % _SPARSE_B,
    "(q+1)^511*((q+1)^300*(q+1)^300)",
], ids=["sparse-pair", "sparse-power-step", "dense-pair"])
def test_a_pair_is_charged_before_its_coefficients_multiply(capsys, monkeypatch, text):
    assert [len(parse_expression(x).terms[""].items()) for x in (_SPARSE_A, _SPARSE_B)] == [512, 1024]
    real = HalfLaurent.__mul__

    def mul(self, other):
        terms = len(other.items()) if isinstance(other, HalfLaurent) else 1
        assert len(self.items()) * terms <= MAX_SIZE, "coefficients multiplied past the budget"
        return real(self, other)

    monkeypatch.setattr(HalfLaurent, "__mul__", mul)
    code, out, err = run_cli(capsys, "normal-form", text)
    assert (code, out) == (2, "")
    assert err.startswith("error: product makes more than 262144 coefficient terms (at position ")


def _power_loop(x, n):
    """x^n as n products by x from the unit, as every power was once taken."""
    out = OqElement.unit()
    for _ in range(n):
        out = multiply(out, x)
    return out


@pytest.mark.parametrize("base", ["a", "b", "c", "d", "q", "v", "2", "(q*b)", "(-2*v^-3*c)"])
def test_a_power_of_one_scaled_letter_is_the_product_loop(base):
    x = parse_expression(base)
    for n in range(65):
        assert parse_expression("%s^%d" % (base, n)) == _power_loop(x, n), n


def test_powers_at_and_past_the_bounds_answer_or_refuse_as_before(capsys):
    assert run_cli(capsys, "normal-form", "a^4096") == (0, "a^4096\n", "")
    assert run_cli(capsys, "normal-form", "a^4097") == (2, "", "error: exponent 4097 exceeds 4096 in size (at position 1)\n")
    too_many = "error: product makes more than 262144 coefficient terms (at position 5)\n"
    assert run_cli(capsys, "normal-form", "(a+d)^24") == (2, "", too_many)
    assert run_cli(capsys, "normal-form", "(q+1)^512") == (2, "", too_many)
    # the slowest product at the swap bound, with the text it printed before
    code, out, err = run_cli(capsys, "normal-form", "(b^20*d^20)*(a^20*c^20)")
    assert (code, err, len(out)) == (0, "", 275240)
    assert hashlib.sha256(out.encode()).hexdigest() == "a578010d5c41b026330e564ae5dfb3a992f308a6e91378b6f9adb54f90a19a62"


def test_huge_exponent_is_one_error_line():
    cmd = [sys.executable, "-m", "bigon.cli", "normal-form", "a^99999999"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1


def test_sum_of_deep_pairs_fails_before_any_normal_form(capsys):
    text = "(d^40+d^39+d^38)*(a^40+a^39+a^38)"
    # the two factors parse on their own; the product of them must not start
    parse_expression(text[: text.index("*")])
    parse_expression(text[text.index("*") + 1 :])
    misses = normal_word.cache_info().misses
    code, out, err = run_cli(capsys, "normal-form", text)
    assert normal_word.cache_info().misses == misses
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "swaps" in err


def _lookups():
    info = normal_word.cache_info()
    return info.hits + info.misses


def _parse_lookups(text):
    before = _lookups()
    parse_expression(text)
    return _lookups() - before


@pytest.mark.parametrize("x, y", [("a + b + c", "d + b*c + a^2"), ("b - q*d", "a + c + b*d + 1")])
def test_a_product_looks_up_each_pair_once(capsys, x, y):
    # the size budget is charged inside the product as it reaches each pair of
    # basis words, not by a walk of its own over the pairs
    pairs = len(parse_expression(x).terms) * len(parse_expression(y).terms)
    factors = _parse_lookups(x) + _parse_lookups(y)
    before = _lookups()
    code, _, _ = run_cli(capsys, "normal-form", "(%s)*(%s)" % (x, y))
    assert code == 0 and _lookups() - before == factors + pairs


def test_each_step_of_a_power_looks_up_each_pair_once(capsys):
    x = parse_expression("a + b + d")
    pairs, power = 0, OqElement.unit()
    for _ in range(4):
        pairs += len(power.terms) * len(x.terms)
        power = multiply(power, x)
    base = _parse_lookups("a + b + d")
    before = _lookups()
    code, out, _ = run_cli(capsys, "normal-form", "(a + b + d)^4")
    assert (code, out) == (0, str(power) + "\n")
    assert _lookups() - before == base + pairs


def test_a_leg_term_scalar_past_the_size_budget_is_one_error_line(capsys):
    # 512 coefficient terms times the 513 of the leg term's coefficient; 512 x 512 is at the bound
    assert MAX_SIZE == 512 * 512
    code, out, err = run_cli(capsys, "braided", "--x", "(q+1)^511*((q+1)^511*(q+1)*(a|))", "--y", "(|)")
    assert (code, out) == (2, "")
    assert err == "error: product makes more than 262144 coefficient terms (at position 9)\n"
    code, out, err = run_cli(capsys, "braided", "--x", "(q+1)^511*((q+1)^511*(a|))", "--y", "(|)")
    assert code == 0 and err == "" and out.startswith("(q^1022 + 1022*q^1021 + ")


def _run_subprocess(*argv):
    cmd = [sys.executable, "-m", "bigon.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=10)


@pytest.mark.parametrize("depth", (300, 1000))
def test_deep_nesting_is_one_error_line(depth):
    done = _run_subprocess("normal-form", "(" * depth + "a" + ")" * depth)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    assert "nests too deeply" in done.stderr


def test_nesting_within_the_stack_is_answered():
    done = _run_subprocess("normal-form", "(" * 200 + "a" + ")" * 200)
    assert (done.returncode, done.stdout, done.stderr) == (0, "a\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("qtrace", "--surface", "{0}", "--curve", "{0}"),
        ("classical", "trace", "--rep", "{0}", "--path", "{0}"),
    ],
)
def test_deeply_nested_json_is_one_error_line(tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    done = _run_subprocess(*(arg.format(deep) for arg in argv))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    assert "nests too deeply" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("hopf", "rho", "--left", "a^64", "--right", "d^64"),
        ("hopf", "rho", "--left", "a^25", "--right", "d"),
        ("hopf", "rho", "--left", "b", "--right", "(a+d)^5", "--kind", "bar"),
        ("hopf", "coproduct", "--expr", "a^128"),
        ("hopf", "coproduct", "--expr", "a^12*d^13"),
    ],
)
def test_hopf_operand_past_its_budget_is_one_error_line(argv):
    done = _run_subprocess(*argv)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    assert "letters" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("hopf", "rho", "--left", "a^3*b^9", "--right", "c^6*d^6", "--kind", "mirror"),
        ("hopf", "coproduct", "--expr", "a^12*d^12"),
        ("hopf", "rho", "--left", "a^13", "--right", "d"),
        ("hopf", "rho", "--left", "b^24", "--right", "c^24"),
    ],
)
def test_hopf_operand_at_its_budget_is_answered(argv):
    done = _run_subprocess(*argv)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.endswith("\n") and len(done.stdout.splitlines()) == 1


BRAIDED_PAST_BUDGET = {
    "1200 legs": ("(%sa)" % ("|" * 1199), "(a%s)" % ("|" * 1199)),
    "(ad)^6 squared": ("(%s)" % "|".join(["ad"] * 6), "(%s)" % "|".join(["ad"] * 6)),
    "ten d legs by ten a legs": ("(%s)" % "|".join(["d"] * 10), "(%s)" % "|".join(["a"] * 10)),
    "one leg d^80 a^80": ("(%s|)" % ("d" * 80 + "a" * 80), "(|)"),
    "one letter past the budget": ("(d|d|d|d|d|d)", "(a|a|a|a|a|aa)"),
}


@pytest.mark.parametrize("x, y", BRAIDED_PAST_BUDGET.values(), ids=BRAIDED_PAST_BUDGET)
def test_braided_operands_past_the_budget_are_one_error_line(x, y):
    done = _run_subprocess("braided", "--x", x, "--y", y)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    assert "letters" in done.stderr


@pytest.mark.parametrize("x, y", [(("aad", "bb"), ("ccc", "ad")), (("d",) * 6, ("a",) * 6)])
def test_braided_operands_within_the_budget_are_answered(x, y):
    done = _run_subprocess("braided", "--x", "(%s)" % "|".join(x), "--y", "(%s)" % "|".join(y))
    product = braided_product(BraidedElement.from_legs(x), BraidedElement.from_legs(y))
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == format_leg_terms(product.terms) + "\n"


FUZZ_ALPHABET = "abcdqv0123456789^*+-()| e"


def _fuzz_text(rng):
    return "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(0, 12)))


def _rejects(parse, texts):
    try:
        for text in texts:
            parse(text)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("text", ["a\u00b2", "1" * 5000, "(q^)*(a|b)"])
def test_unreadable_numbers_and_coefficients_exit_two(capsys, text):
    # a superscript digit, an integer past the interpreter's digit limit and
    # a malformed leg coefficient are parse errors, not domain errors
    argv = ("braided", "--x", text, "--y", "(|)") if "|" in text else ("normal-form", text)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "position" in err


def test_malformed_operands_keep_the_exit_contract(capsys):
    # every reply exits 0, 1 or 2, a failure is one error line, and an operand
    # the grammar rejects exits 2; half the braided operands are a random
    # coefficient times a leg group, so the coefficient grammar is reached
    rng = seeded(90)
    for i in range(510):
        x, y = _fuzz_text(rng), _fuzz_text(rng)
        if i % 3 == 0:
            argv, parse, texts = ("normal-form", "--", x), parse_expression, (x,)
        elif i % 3 == 1:
            argv = ("hopf", "rho", "--left=" + x, "--right=" + y)
            parse, texts = parse_expression, (x, y)
        else:
            if i % 2:
                x = "%s*(%s)" % (x, "|".join(rng.choice(["", "a", "bd"]) for _ in range(2)))
                y = "(a|)"
            argv, parse, texts = ("braided", "--x=" + x, "--y=" + y), parse_leg_terms, (x, y)
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2), argv
        if code:
            assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, argv
        if _rejects(parse, texts):
            assert code == 2, (argv, err)


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


def test_qtrace_builds_one_torus_per_run(capsys, tmp_path, monkeypatch):
    # the triangulation builds its per-face torus once; the trace and the balance check read it
    built, inner = [], qtorus.ambient_torus
    monkeypatch.setattr(qtorus, "ambient_torus", lambda tri: built.append(tri) or inner(tri))
    surface, curve = _write(tmp_path, "tri.json", SQUARE), _write(tmp_path, "arc.json", ARC)
    assert run_cli(capsys, "qtrace", "--surface", surface, "--curve", curve) == (0, "q * x^(0,1,1,0,1,1)\n", "")
    assert len(built) == 1


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


# three pieces with unlike denominators, and a 40-token path mixing reversed
# pieces with both fiber tokens
REP3 = {
    "generators": {
        "g": [["2", "3"], ["1", "2"]],
        "h": [["1/2", "-3/4"], ["1", "1/2"]],
        "k": [["1", "-2/3"], ["0", "1"]],
    }
}
WORD40 = ["g", "~h", "sqrtO-", "k", "O", "~g", "h", "~k"] * 5


def test_classical_goldens_for_a_forty_piece_path(capsys, tmp_path):
    rep = _write(tmp_path, "rep.json", REP3)
    arc = _write(tmp_path, "arc.json", {"word": WORD40, "states": "+-"})
    loop = _write(tmp_path, "loop.json", {"word": WORD40, "closed": True})
    cut = WORD40[:7] + ["CUT"] + WORD40[7:19] + ["CUT"] + WORD40[19:31] + ["CUT"] + WORD40[31:]
    cut = _write(tmp_path, "cut.json", {"word": cut, "states": "-+"})
    assert run_cli(capsys, "classical", "trace", "--rep", rep, "--path", arc) == (0, "-40436888/243\n", "")
    assert run_cli(capsys, "classical", "trace", "--rep", rep, "--path", loop) == (0, "76781318/243\n", "")
    assert run_cli(capsys, "classical", "cut", "--rep", rep, "--path", cut) == (0, "-2459895/16\n", "")
    unknown = _write(tmp_path, "unknown.json", {"word": WORD40[:20] + ["~x"] + WORD40[20:], "states": "++"})
    for op in ("trace", "cut"):
        reply = run_cli(capsys, "classical", op, "--rep", rep, "--path", unknown)
        assert reply == (1, "", "error: unknown generator 'x'\n")


def test_classical_states_must_be_a_json_string(capsys, tmp_path):
    rep = _write(tmp_path, "rep.json", REP)
    path = _write(tmp_path, "arc.json", {"word": ["g"], "states": {"+": 1, "-": 2}})
    code, out, err = run_cli(capsys, "classical", "trace", "--rep", rep, "--path", path)
    assert (code, out) == (2, "")
    assert err == "error: malformed input file: TypeError('states must be a string')\n"


@pytest.mark.parametrize("states", [{"+": 1, "-": 2}, [1, 2]], ids=["object", "integers"])
def test_curve_states_must_be_a_string_or_a_list_of_strings(capsys, tmp_path, states):
    surface = _write(tmp_path, "tri.json", SQUARE)
    curve = _write(tmp_path, "arc.json", dict(ARC, states=states))
    code, out, err = run_cli(capsys, "qtrace", "--surface", surface, "--curve", curve)
    assert (code, out) == (2, "")
    assert err == "error: malformed input file: TypeError('states must be a string or a list of strings')\n"


@pytest.mark.parametrize("closed", ["no", 1])
def test_closed_must_be_a_json_boolean(capsys, tmp_path, closed):
    rep = _write(tmp_path, "rep.json", REP)
    path = _write(tmp_path, "path.json", {"word": ["g"], "states": "+-", "closed": closed})
    surface = _write(tmp_path, "tri.json", SQUARE)
    curve = _write(tmp_path, "curve.json", dict(ARC, closed=closed))
    for argv in (
        ("classical", "trace", "--rep", rep, "--path", path),
        ("qtrace", "--surface", surface, "--curve", curve),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: malformed input file: ") and len(err.splitlines()) == 1, argv


def _strip(faces):
    """A strip of triangles, each glued to the next."""
    return {
        "faces": [{"id": "F%d" % i, "sides": [0, 1, 2]} for i in range(faces)],
        "gluings": [["F%d" % i, 2, "F%d" % (i + 1), 0] for i in range(faces - 1)],
    }


def test_qtrace_answers_on_a_4096_face_strip(capsys, tmp_path):
    steps = [{"face": "F0", "enter": 1, "exit": 2}, {"face": "F1", "enter": 0, "exit": 1}]
    curve = _write(tmp_path, "arc.json", {"steps": steps, "states": "++"})
    surface = _write(tmp_path, "strip.json", _strip(4096))
    code, out, err = run_cli(capsys, "qtrace", "--surface", surface, "--curve", curve)
    exponents = [0, 1, 1, 1, 1] + [0] * (3 * 4096 - 5)
    assert (code, out, err) == (0, "q * x^(%s)\n" % ",".join(map(str, exponents)), "")


PUNCTURED_TORUS = {
    "faces": [{"id": "F0", "sides": [0, 1, 2]}, {"id": "F1", "sides": [0, 1, 2]}],
    "gluings": [["F0", 0, "F1", 0], ["F0", 1, "F1", 1], ["F0", 2, "F1", 2]],
}
# the peripheral loop: six steps, each face visited three times
PERIPHERAL = {
    "steps": [
        {"face": f, "enter": a, "exit": b}
        for f, a, b in (("F0", 0, 1), ("F1", 1, 2), ("F0", 2, 0), ("F1", 0, 1), ("F0", 1, 2), ("F1", 2, 0))
    ],
    "closed": True,
}


def test_qtrace_golden_for_a_loop_that_revisits_its_faces(capsys, tmp_path):
    surface = _write(tmp_path, "torus.json", PUNCTURED_TORUS)
    curve = _write(tmp_path, "loop.json", PERIPHERAL)
    reply = run_cli(capsys, "qtrace", "--surface", surface, "--curve", curve)
    assert reply == (0, "q^3 * x^(-2,-2,-2,-2,-2,-2)\nq^3 * x^(2,2,2,2,2,2)\n", "")


def _zigzag(faces):
    """A strip and an arc through it that enters face i through side i mod 3
    and turns 1, 2, 2, 1, 1, 2, 2, ... sides on, crossing every internal edge."""
    enters = [i % 3 for i in range(faces)]
    leaves = [(i + 1 + (i + 1) // 2 % 2) % 3 for i in range(faces)]
    surface = {
        "faces": [{"id": "F%d" % i, "sides": [0, 1, 2]} for i in range(faces)],
        "gluings": [["F%d" % i, leaves[i], "F%d" % (i + 1), enters[i + 1]] for i in range(faces - 1)],
    }
    steps = [{"face": "F%d" % i, "enter": enters[i], "exit": leaves[i]} for i in range(faces)]
    return surface, {"steps": steps, "states": "+-"}


def test_qtrace_golden_for_a_twelve_face_strip(capsys, tmp_path):
    # 70 terms, each face visited once
    surface, arc = _zigzag(12)
    surface, arc = _write(tmp_path, "strip.json", surface), _write(tmp_path, "arc.json", arc)
    golden = (Path(__file__).parent / "golden" / "qtrace_strip12.txt").read_text()
    reply = run_cli(capsys, "qtrace", "--surface", surface, "--curve", arc)
    assert reply == (0, golden, "") and len(golden.splitlines()) == 70


UNDECODABLE = {
    "not UTF-8": (b'{"word": ["g\xff"]}', "not UTF-8 text"),
    "5000-digit integer": (
        b'{"word": [' + b"7" * 5000 + b"]}",
        "an integer has more than %d digits" % sys.get_int_max_str_digits(),
    ),
}


@pytest.mark.parametrize("content, message", UNDECODABLE.values(), ids=UNDECODABLE)
def test_undecodable_files_are_one_error_line_naming_the_file(capsys, tmp_path, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    bad = str(bad)
    surface, curve = _write(tmp_path, "tri.json", SQUARE), _write(tmp_path, "arc.json", ARC)
    rep = _write(tmp_path, "rep.json", REP)
    path = _write(tmp_path, "path.json", {"word": ["g"], "states": "+-"})
    for argv in [
        ("qtrace", "--surface", bad, "--curve", curve),
        ("qtrace", "--surface", surface, "--curve", bad),
        ("classical", "trace", "--rep", bad, "--path", path),
        ("classical", "cut", "--rep", rep, "--path", bad),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: %s: %s\n" % (bad, message)), argv


def test_other_value_errors_of_a_file_keep_their_own_message(capsys, tmp_path):
    # only the digit limit is reported as a too-long integer
    curve = _write(tmp_path, "arc.json", ARC)
    code, out, err = run_cli(capsys, "qtrace", "--surface", "tri\0.json", "--curve", curve)
    assert (code, out, err) == (1, "", "error: embedded null byte\n")


@pytest.mark.parametrize("name, rows, required", [
    ("sqrtO", [["1", "0"], ["0", "1"]], "[[0, -1], [1, 0]]"),
    ("O", [[1, 0], [0, 1]], "[[-1, 0], [0, -1]]"),
])
def test_a_wrong_fiber_matrix_is_printed_as_a_matrix(capsys, tmp_path, name, rows, required):
    rep = _write(tmp_path, "rep.json", {"generators": {name: rows}})
    path = _write(tmp_path, "path.json", {"word": [name], "states": "+-"})
    code, out, err = run_cli(capsys, "classical", "trace", "--rep", rep, "--path", path)
    assert (code, out, err) == (1, "", "error: %s must be %s\n" % (name, required))


def test_classical_domain_error(capsys, tmp_path):
    rep = _write(tmp_path, "rep.json", REP)
    path = _write(tmp_path, "arc.json", {"word": ["h"], "states": "++", "closed": False})
    code, _, _ = run_cli(capsys, "classical", "trace", "--rep", rep, "--path", path)
    assert code == 1


@pytest.mark.parametrize("name", ["sqrtO-", "CUT", "~g"])
def test_classical_piece_named_like_a_token_is_one_error_line(capsys, tmp_path, name):
    # the token sqrtO- would still read the half fiber's inverse, not this matrix
    rep = _write(tmp_path, "rep.json", {"generators": {name: [["2", "3"], ["1", "2"]]}})
    path = _write(tmp_path, "arc.json", {"word": [name], "states": "+-", "closed": False})
    for op in ("trace", "cut"):
        code, out, err = run_cli(capsys, "classical", op, "--rep", rep, "--path", path)
        assert (code, out) == (1, "") and err == "error: %r is a path token, not a piece name\n" % name


@pytest.mark.parametrize("op", ["trace", "cut"])
def test_classical_zero_denominator_is_one_error_line(tmp_path, op):
    path = _write(tmp_path, "arc.json", {"word": ["g"], "states": "+-", "closed": False})
    # an entry that Fraction cannot read, or cannot read within Python's digit
    # limit, a decimal exponent past that limit included: refused before it expands
    matrices = [[[entry, "3"], ["1", "2"]] for entry in ["1/0", "abc", "7" * 5000, "1e3000000"]]
    matrices.append([["1e5000", "1e-5000"], [0, 1]])
    # and a matrix that is not two rows of two entries
    matrices += [[["1", "0"]], [["1", "0"], ["0"]], "x"]
    for rows in matrices:
        label = str(rows)[:24]
        rep = _write(tmp_path, "rep.json", {"generators": {"g": rows}})
        start = time.perf_counter()
        done = _run_subprocess("classical", op, "--rep", rep, "--path", path)
        assert time.perf_counter() - start < 0.5, label
        assert done.returncode == 2 and done.stdout == "", label
        assert done.stderr.startswith("error: malformed input file: "), label
        assert len(done.stderr.splitlines()) == 1, label
    # a well-formed matrix of determinant 3 is still a domain error, exit 1,
    # and so is one whose determinant has more digits than can be printed
    bad = _write(tmp_path, "det.json", {"generators": {"g": [["2", "3"], ["1", "3"]]}})
    done = _run_subprocess("classical", op, "--rep", bad, "--path", path)
    assert done.returncode == 1 and done.stderr == "error: determinant is 3, not 1\n"
    long = _write(tmp_path, "long.json", {"generators": {"g": [["1e4000", 0], [0, "1e4000"]]}})
    done = _run_subprocess("classical", op, "--rep", long, "--path", path)
    assert done.returncode == 1 and done.stderr == "error: determinant is not 1, and too long to print\n"


@pytest.mark.parametrize("op, path", [
    ("trace", {"word": ["g"] * 5, "states": "+-"}),
    ("trace", {"word": ["g"] * 5, "closed": True}),
    ("cut", {"word": ["g"] * 2 + ["CUT"] + ["g"] * 3, "states": "+-"}),
])
def test_classical_answer_too_long_to_print_is_one_error_line(capsys, tmp_path, op, path):
    # determinant 1, but five pieces give a trace past the interpreter's digit limit
    rep = _write(tmp_path, "rep.json", {"generators": {"g": [["1e1000", "9" * 1000], ["1", "1"]]}})
    path = _write(tmp_path, "path.json", path)
    for json_flag in ((), ("--json",)):
        code, out, err = run_cli(capsys, "classical", op, "--rep", rep, "--path", path, *json_flag)
        assert (code, out, err) == (1, "", "error: trace is too long to print\n")
    # four pieces print
    four = _write(tmp_path, "four.json", {"word": ["g"] * 4, "states": "+-"})
    code, out, err = run_cli(capsys, "classical", "trace", "--rep", rep, "--path", four)
    assert code == 0 and err == "" and len(out) > 4000


# one value of each JSON type; a fuzzed field takes one of another type
JSON_SAMPLES = (7, -1, 0.5, 2.0, "", "F0", "+-", "g", [], [0], ["F0", 2], {}, {"id": "F0"}, None, True, False)


def _json_positions(value, where=()):
    """Every position in a JSON value, the root first, as key paths."""
    yield where
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _json_positions(child, where + (key,))


def _json_replaced(value, where, new):
    if not where:
        return new
    value = json.loads(json.dumps(value))
    parent = value
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = new
    return value


def test_malformed_json_files_keep_the_exit_contract(capsys, tmp_path):
    # a valid surface and curve, or representation and path, with one field at
    # any depth replaced by a value of another JSON type
    path = {"word": ["g", "CUT", "~g"], "states": "+-", "closed": False}
    cases = [
        (("qtrace", "--surface", "{0}", "--curve", "{1}"), SQUARE, ARC),
        (("classical", "trace", "--rep", "{0}", "--path", "{1}"), REP, path),
        (("classical", "cut", "--rep", "{0}", "--path", "{1}"), REP, path),
    ]
    rng = seeded(17)
    for _ in range(400):
        argv, *files = rng.choice(cases)
        k = rng.randrange(2)
        where = rng.choice(list(_json_positions(files[k])))
        old = files[k]
        for key in where:
            old = old[key]
        new = rng.choice([x for x in JSON_SAMPLES if type(x) is not type(old)])
        files[k] = _json_replaced(files[k], where, new)
        names = [_write(tmp_path, "%d.json" % i, payload) for i, payload in enumerate(files)]
        argv = [arg.format(*names) for arg in argv]
        try:
            code, out, err = run_cli(capsys, *argv)
        except Exception as exc:
            pytest.fail("%r escaped main on %r" % (exc, files))
        assert code in (0, 1, 2), files
        if code:
            assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, files


def _reply_cases(tmp_path):
    surface = _write(tmp_path, "tri.json", SQUARE)
    curve = _write(tmp_path, "arc.json", ARC)
    rep = _write(tmp_path, "rep.json", REP)
    path = _write(tmp_path, "path.json", {"word": ["g"], "states": "+-", "closed": False})
    cut = _write(tmp_path, "cut.json", {"word": ["g", "CUT", "g"], "states": "++", "closed": False})
    return [
        ("normal-form", "b*c"),
        ("normal-form", "a + e"),
        ("tangle", "eval", "--word", "cup@0;cap@0"),
        ("tangle", "element", "--word", "cup@1;x+@0;cap@1", "--left", "+", "--right", "-"),
        ("tangle", "eval", "--word", "id2"),
        ("hopf", "rho", "--left", "b", "--right", "c"),
        ("hopf", "coproduct", "--expr", "a"),
        ("hopf", "counit", "--expr", "a*d"),
        ("hopf", "antipode", "--expr", "b*c"),
        ("hopf", "rho", "--left", "a^25", "--right", "d"),
        ("braided", "--x", "(|a)", "--y", "(a|)"),
        ("braided", "--x", "(a|)", "--y", "(a)"),
        ("qtrace", "--surface", surface, "--curve", curve),
        ("classical", "trace", "--rep", rep, "--path", path),
        ("classical", "cut", "--rep", rep, "--path", cut),
        ("classical", "trace", "--rep", rep, "--path", surface),
        ("selftest",),
    ]


def test_text_and_json_replies_agree(capsys, tmp_path):
    for argv in _reply_cases(tmp_path):
        code, text, err = run_cli(capsys, *argv)
        json_code, out, json_err = run_cli(capsys, *argv, "--json")
        assert (json_code, json_err) == (code, err), argv
        if code and err:
            assert text == out == "", argv
            continue
        payload = json.loads(out)
        assert isinstance(payload, dict) and out == json.dumps(payload, sort_keys=True) + "\n", argv
        for key in ("value", "text"):
            if key in payload:
                assert payload[key] + "\n" == text, argv


def test_plain_replies_build_no_json_payload(capsys, tmp_path, monkeypatch):
    # a payload formats one q-form per coefficient; only --json prints it
    calls = []

    def spy(p):
        calls.append(p)
        return format_qform(p)

    monkeypatch.setattr(cli, "format_qform", spy)
    surface, curve = _write(tmp_path, "tri.json", SQUARE), _write(tmp_path, "arc.json", ARC)
    for argv in [
        ("normal-form", "b*c"),
        ("hopf", "coproduct", "--expr", "a^3*d^3"),
        ("hopf", "antipode", "--expr", "b*c"),
        ("braided", "--x", "(|a)", "--y", "(a|)"),
        ("qtrace", "--surface", surface, "--curve", curve),
    ]:
        code, text, _ = run_cli(capsys, *argv)
        assert code == 0 and text and not calls, argv
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["terms"] and calls, argv
        calls.clear()


# ---------------------------------------------------------------------------
# determinism and selftest
# ---------------------------------------------------------------------------


def test_every_repr_is_the_cli_text_and_reads_back(capsys, tmp_path):
    rng = seeded(18)
    braided = 0
    for _ in range(200):
        x = random_element(rng, 3, n_terms=3)
        assert parse_expression(repr(x)) == x
        t = coproduct(x)
        assert OqTensor(parse_leg_terms(repr(t))) == t
        arity = rng.choice([2, 3])
        x, y = (
            BraidedElement.from_legs([random_word(rng, 2) for _ in range(arity)], random_scalar(rng))
            for _ in range(2)
        )
        p = braided_product(x, y)
        if p:
            braided += 1
            assert parse_braided(repr(p)) == p
    assert braided > 100
    square = Triangulation([("F0", (0, 1, 2)), ("F1", (0, 1, 2))], [("F0", 2, "F1", 2)])
    curve = NormalCurve([("F0", 1, 2), ("F1", 2, 1)], end_states=("+", "+"))
    surface, arc = _write(tmp_path, "tri.json", SQUARE), _write(tmp_path, "arc.json", ARC)
    reply = run_cli(capsys, "qtrace", "--surface", surface, "--curve", arc)
    assert reply == (0, repr(quantum_trace(square, curve)) + "\n", "")


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


def test_a_failed_selftest_check_exits_one(capsys, monkeypatch):
    def broken():
        raise AssertionError

    monkeypatch.setattr(cli, "_SELFTESTS", [("broken", broken)] + cli._SELFTESTS[:1])
    code, out, _ = run_cli(capsys, "selftest")
    lines = ["FAIL broken", "ok   %s" % cli._SELFTESTS[1][0], "1 passed, 1 failed"]
    assert code == 1 and out.splitlines() == lines
    code, out, _ = run_cli(capsys, "selftest", "--json")
    assert code == 1 and json.loads(out)["failed"] == 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["braided", "--x", "(a|)*q", "--y", "(|)"], (0, "q*(a|)\n", "")),
        (
            ["normal-form", "(2)^-1"],
            (2, "", "error: negative power of a non-invertible factor (at position 3)\n"),
        ),
        (
            ["braided", "--x", "0", "--y", "(|)"],
            (2, "", "error: cannot infer leg count of the zero element (at position 0)\n"),
        ),
        (
            ["braided", "--x", "(a|)^2", "--y", "(|)"],
            (2, "", "error: a leg group can only be scaled (at position 4)\n"),
        ),
    ],
    ids=["scaled-leg-group", "inverse-of-2", "zero-leg-count", "squared-leg-group"],
)
def test_leg_groups_and_inverses_answer_or_refuse(capsys, argv, expected):
    assert run_cli(capsys, *argv) == expected
