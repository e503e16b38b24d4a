"""Command line front end: parse expressions and files, print canonically.

Every text operand is read by the grammar of `ring.parse_grammar` (sums,
products, integer powers and parentheses over integers, q and v).
Expressions add the generators a-d; `braided` leg terms add leg groups
(w|w|...) over abcd, one per term.  Products and powers are budgeted below.

The printers are the element types' own reprs: an `OqElement` prints as
`hopf.element_to_string`, an `OqTensor` or `BraidedElement` as
`hopf.format_leg_terms` and a `QTElement` as `qtorus.format_qtorus`, so
what the library shows is what this module prints and reads back.

Exit codes: 0 on success, 1 on a domain error (a legal request whose data is
rejected by the algebra), 2 on a parse or usage error (malformed expression,
word, file or arguments), each error one `error:` line on stderr.  The
argument after `--left` or `--right` is always its value, so states such as
`-+` need no `=`.  Output is deterministic: identical invocations print
identical bytes.
"""

import argparse
import contextlib
import io
import itertools
import json
import sys

from .braided import BraidedElement, braided_product, transmutation_product
from .classical import (
    GroupoidRep,
    StatedPath,
    cut_check,
    skein_vs_classical,
    splice_cuts,
    trace_arc,
    trace_loop,
)
from .hopf import (
    GENERATORS,
    LETTER_STATES,
    OqElement,
    antipode,
    co_r,
    co_r_mirror,
    coproduct,
    coproduct_word,
    counit,
    counit_word,
    element_to_string,
    format_leg_terms,
    mono_parts,
    multiply,
    normal_word,
    rho_word,
)
from .qtorus import (
    NormalCurve,
    StatedCornerArc,
    Triangulation,
    check_balanced,
    corner_arc_image,
    format_qtorus,
    qt_multiply,
    quantum_trace,
    triangle_element,
)
from .ring import ONE, ZERO, Combination, expand, format_qform, half, parse_grammar, q_power
from .ring import ScalarParseError as ExpressionError  # one error class for every text form
from .tangle import (
    SlicedTangle,
    TangleError,
    kauffman_reduce,
    parse_tangle_word,
    rt_evaluate,
    skein_element,
)


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# the expression grammar: letters a,b,c,d and scalars q,v with ^, *, +, -, ()
# ---------------------------------------------------------------------------

# a power is a loop of products, so its exponent is bounded; the bound still
# reads back the q-powers of every normal form the products can reach
MAX_EXPONENT = 4096

# Every product is bounded: before it runs, its pairs of basis words may hold
# at most MAX_SWAPS out-of-order letter pairs in all; as it runs, each pair is
# charged the coefficient monomials it generates before equal terms merge, at
# most MAX_SIZE in all, the products of one power counted together and each
# leg term times its scalar on its own.  In a fresh process,
# printing included, d^40*a^40 (1600 swaps) takes about 0.24 s and the
# slowest product found at the bound, (b^20*d^20)*(a^20*c^20), about 1.5 s:
# its closed form multiplies every term of the d*a rule by every term of the
# b*c rule (2-core machine, Python 3.11.7).  The swaps also bound the output:
# MAX_SIZE alone accepts d^80*a^80, 7.3 MB of text.  (a+d)^n stops at
# n = 24, (q+1)^n at n = 512; (a+d)^23 takes about 0.17 s.
MAX_SWAPS = 1600
MAX_SIZE = 2**18
_TOO_MANY_TERMS = "product makes more than %d coefficient terms" % MAX_SIZE

# The words of each operand of a hopf subcommand may have at most
# MAX_OPERAND_LETTERS letters in all.  A coproduct's cost grows faster than
# linearly in a word's length, so for a given total one long word is the
# slowest operand: a^12*d^12 takes 1.0-1.3 s to split in a fresh process
# (2-core machine, Python 3.11.7).  The pairing forms are read off the normal
# forms in closed form and stay in milliseconds.
# A braided product's cost grows steeply with its legs, so there the two
# operands share the budget, each leg of each term counting one letter more
# than it has as written; it is checked before any leg is brought to normal
# form.  (cb|cb|cb|cb|cb|cb) times the unit (|||||) takes about 0.5 s in a
# fresh process (2-core machine, Python 3.11.7).
# `tangle element` lifts a word to the product of one generator per right
# strand, so it takes at most MAX_OPERAND_LETTERS right strands: id24 with
# alternating states takes 0.1-0.15 s, id200 6-9 s and 5.8 MB of text.
MAX_OPERAND_LETTERS = 24

# A tangle word may make its sweep carry at most MAX_STATE_VECTORS state
# vectors, bounded from the slice word alone: each cup or crossing at most
# doubles them, a cap never adds any, and there are never more than
# 2^strands.  11 stacked cups reach the bound.  The slowest accepted words
# found stack each cup inside the last (cup@0;cup@1;...;cup@10): with
# alternating right states `element` takes 0.45-0.65 s on them, and `eval`
# under 0.1 s, in a fresh process (2-core machine, Python 3.11.7); 14 such
# cups take about 6 s.
MAX_STATE_VECTORS = 2**11


def _swaps(w1, w2):
    """Out-of-order letter pairs (one from each basis word) in the word w1 w2."""
    h1, x1, k1, l1 = mono_parts(w1)
    h2, x2, k2, l2 = mono_parts(w2)
    return (k1 + l1) * h2 + l1 * k2 + (k1 * k2 if x1 != x2 else 0)


def _product(x, y, pos, spent=None):
    """x*y within the budgets: its letter swaps priced first, then the monomials of each
    pair of basis words added to spent[0] before the product multiplies their coefficients."""
    if sum(_swaps(w1, w2) for w1 in x.terms for w2 in y.terms) > MAX_SWAPS:
        raise ExpressionError("product needs more than %d letter swaps" % MAX_SWAPS, pos)
    spent = [0] if spent is None else spent

    def times(w1, w2):
        out = normal_word(w1 + w2)
        size = sum(len(c.items()) for _, c in out)
        spent[0] += len(x.terms[w1].items()) * len(y.terms[w2].items()) * size
        if spent[0] > MAX_SIZE:
            raise ExpressionError(_TOO_MANY_TERMS, pos)
        return out

    return x.product(y, times)


def _power(x, n, pos):
    if abs(n) > MAX_EXPONENT:
        raise ExpressionError("exponent %d exceeds %d in size" % (n, MAX_EXPONENT), pos)
    if len(x.terms) == 1 and n >= 0:
        # a scaled letter or scalar to a power is one word: no swaps, at most n
        # one-monomial terms, so no budget can refuse the products it stands for
        ((w, c),) = x.terms.items()
        if len(w) <= 1 and len(c.items()) == 1:
            return OqElement.from_word(w * n, c**n)
    if n >= 0:
        out, spent = OqElement.unit(), [0]
        for _ in range(n):
            out = _product(out, x, pos, spent)
        return out
    if set(x.terms) == {""}:
        try:
            return OqElement.unit(x.terms[""] ** n)
        except ValueError:
            pass
    raise ExpressionError("negative power of a non-invertible factor", pos)


def _expression_atom(x):
    return OqElement.from_word(x) if isinstance(x, str) else OqElement.unit(x)


def parse_expression(text):
    """Parse the expression grammar into a normal-form element."""
    return parse_grammar(text, "[abcdqv]", _expression_atom, _product, _power)


# ---------------------------------------------------------------------------
# leg-tuple terms (tensors and braided elements) share one text format
# ---------------------------------------------------------------------------


def _leg_atom(x):
    """A leg group (w|w|...) keyed by its legs as written; a scalar keyed by ()."""
    return Combination({tuple(x[1:-1].split("|")): ONE} if isinstance(x, str) else {(): x})


def _scalar_factor(x, pos):
    if set(x.terms) - {()}:
        raise ExpressionError("a leg group can only be scaled", pos)
    return x.terms.get((), ZERO)


def _leg_product(x, y, pos):
    """A scalar times leg terms, each term's coefficient product within MAX_SIZE."""
    if set(x.terms) - {()}:
        x, y = y, x
    scalar = _scalar_factor(x, pos)
    if any(len(scalar.items()) * len(c.items()) > MAX_SIZE for c in y.terms.values()):
        raise ExpressionError(_TOO_MANY_TERMS, pos)
    return y.scale(scalar)


def _leg_power(x, n, pos):
    power = _power(OqElement.unit(_scalar_factor(x, pos)), n, pos)
    return Combination({(): power.terms.get("", ZERO)})


def parse_leg_terms(text):
    """Parse [coefficient*](w|w|...) terms, as format_leg_terms writes them, into a terms map."""
    terms = parse_grammar(text, r"[qv]|\([abcd|]*\)", _leg_atom, _leg_product, _leg_power).terms
    if () in terms:
        raise ExpressionError("a term has no leg group", 0)
    return terms


def _braided_terms(text):
    """The leg terms of a braided element, as written: one leg count, not zero."""
    terms = parse_leg_terms(text)
    if not terms:
        raise ExpressionError("cannot infer leg count of the zero element", 0)
    if len({len(k) for k in terms}) != 1:
        raise ExpressionError("mixed leg counts", 0)
    return terms


def _braided_element(terms):
    normal = expand(terms, lambda legs: BraidedElement.from_legs(legs).terms.items())
    return BraidedElement(len(next(iter(terms))), normal)


def parse_braided(text):
    return _braided_element(_braided_terms(text))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


# A reply is its text and its JSON payload; a payload with one q-form per
# coefficient comes as a function, which `main` calls only for --json.
def _element_reply(x):
    text = element_to_string(x)
    words = sorted(x.terms, key=lambda w: (len(w), w))
    return text, lambda: {
        "terms": [{"word": w, "coefficient": format_qform(x.terms[w])} for w in words],
        "text": text,
    }


def _legs_reply(terms):
    return format_leg_terms(terms), lambda: {
        "terms": [{"legs": list(k), "coefficient": format_qform(terms[k])} for k in sorted(terms)]
    }


def _value_reply(text):
    return text, {"value": text}


def _cmd_normal_form(args):
    return _element_reply(parse_expression(args.expression))


def _check_letters(x, name):
    """Reject an operand whose words have more than MAX_OPERAND_LETTERS letters in all."""
    letters = sum(map(len, x.terms))
    if letters > MAX_OPERAND_LETTERS:
        raise CliError(
            2, "%s has %d letters in its words, more than %d" % (name, letters, MAX_OPERAND_LETTERS)
        )


def _cmd_hopf(args):
    if args.op in ("coproduct", "counit", "antipode"):
        if args.expr is None:
            raise CliError(2, "%s needs --expr" % args.op)
        x = parse_expression(args.expr)
        if args.op == "coproduct":
            _check_letters(x, "--expr")
            return _legs_reply(coproduct(x).terms)
        if args.op == "counit":
            return _value_reply(format_qform(counit(x)))
        return _element_reply(antipode(x))
    # pairing form
    if args.left is None or args.right is None:
        raise CliError(2, "rho needs --left and --right")
    x = parse_expression(args.left)
    y = parse_expression(args.right)
    _check_letters(x, "--left")
    _check_letters(y, "--right")
    if args.kind == "rho":
        value = co_r(x, y)
    elif args.kind == "bar":
        value = co_r(x, y, inverse=True)
    else:
        value = co_r_mirror(x, y)
    return _value_reply(format_qform(value))


def _parse_states(text, pos_name):
    states = tuple(text)
    if any(s not in "+-" for s in states):
        raise CliError(2, "%s must be a string over +/-" % pos_name)
    return states


def _cmd_tangle(args):
    left = _parse_states(args.left, "--left") if args.left is not None else None
    right = _parse_states(args.right, "--right") if args.right is not None else None
    try:
        slices, n_out = parse_tangle_word(args.word, n0=None if left is None else len(left))
    except TangleError as err:
        raise CliError(2, str(err))
    if left is None:
        n_in = slices[0].in_strands if slices else n_out
        if n_in:
            raise CliError(1, "word has %d incoming strands; give --left" % n_in)
        left = ()
    if right is None:
        if n_out:
            raise CliError(1, "word has %d outgoing strands; give --right" % n_out)
        right = ()
    tangle = SlicedTangle(slices, left, right)
    vectors = 1
    for s in slices:
        vectors = min(vectors * 2 if s.kind in ("cup", "x+", "x-") else vectors, 2**s.out_strands)
        if vectors > MAX_STATE_VECTORS:
            raise CliError(
                2, "word may need %d state vectors, more than %d" % (vectors, MAX_STATE_VECTORS)
            )
    if args.op == "eval":
        return _value_reply(format_qform(rt_evaluate(tangle)))
    if len(right) > MAX_OPERAND_LETTERS:
        raise CliError(2, "--right has %d strands, more than %d" % (len(right), MAX_OPERAND_LETTERS))
    return _element_reply(skein_element(tangle))


def _cmd_braided(args):
    x = _braided_terms(args.x)
    y = _braided_terms(args.y)
    legs = sum(len(key) for terms in (x, y) for key in terms)
    letters = sum(len(word) for terms in (x, y) for key in terms for word in key)
    if legs + letters > MAX_OPERAND_LETTERS:
        raise CliError(
            2,
            "--x and --y have %d legs and %d letters in their terms, more than %d in all"
            % (legs, letters, MAX_OPERAND_LETTERS),
        )
    out = braided_product(_braided_element(x), _braided_element(y), rho_variant=args.variant)
    return _legs_reply(out.terms)


def _read(path, reader):
    """reader applied to the JSON in the file at path.  A file that cannot be read
    as JSON, or that reader finds of the wrong shape, is one error of exit 2."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise CliError(2, str(err))
    except UnicodeDecodeError:
        raise CliError(2, "%s: not UTF-8 text" % path) from None
    except json.JSONDecodeError as err:
        raise CliError(2, "%s: %s" % (path, err))
    except ValueError as err:  # an integer literal past the interpreter's digit limit, or not
        if "integer string conversion" not in str(err):
            raise
        limit = sys.get_int_max_str_digits()
        raise CliError(2, "%s: an integer has more than %d digits" % (path, limit)) from None
    except RecursionError:
        raise CliError(2, "%s: JSON nests too deeply" % path) from None
    try:
        return reader(data)
    except (KeyError, TypeError) as err:
        raise CliError(2, "malformed input file: %r" % err)


def _cmd_qtrace(args):
    tri = _read(args.surface, Triangulation.from_dict)
    curve = _read(args.curve, NormalCurve.from_dict)
    x = quantum_trace(tri, curve)
    if not check_balanced(tri, x):
        raise CliError(1, "trace is not balanced")
    return format_qtorus(x), lambda: {
        "terms": [{"coefficient": format_qform(x.terms[v]), "exponents": list(v)} for v in sorted(x.terms)]
    }


def _cmd_classical(args):
    rep = _read(args.rep, GroupoidRep.from_dict)
    path = _read(args.path, StatedPath.from_dict)
    if args.op == "trace":
        value = trace_loop(rep, path) if path.closed else trace_arc(rep, path)
    else:
        value = cut_check(rep, path)
    try:
        text = str(value)
    except ValueError:  # more digits than the interpreter turns into text
        raise CliError(1, "trace is too long to print") from None
    return _value_reply(text)


# ---------------------------------------------------------------------------
# selftest: quick cross-checks of every module's core invariants
# ---------------------------------------------------------------------------


def _small_words():
    return [""] + list(GENERATORS) + [g1 + g2 for g1 in GENERATORS for g2 in GENERATORS]


def _st_coassociativity():
    for w in _small_words():
        pairs = dict(coproduct_word(w))
        left = expand(pairs, lambda p: [((u1, u2, p[1]), c) for (u1, u2), c in coproduct_word(p[0])])
        right = expand(pairs, lambda p: [((p[0], u1, u2), c) for (u1, u2), c in coproduct_word(p[1])])
        assert left == right


def _st_counit_antipode():
    for w in _small_words():
        recovered = OqElement()
        folded = OqElement()
        for (w1, w2), c in coproduct_word(w):
            recovered = recovered + OqElement.from_word(w2, counit_word(w1) * c)
            folded = folded + multiply(antipode(OqElement.from_word(w1)), OqElement.from_word(w2)).scale(c)
        assert recovered == OqElement.from_word(w)
        assert folded == OqElement.from_word("", counit_word(w))


def _st_pairing_exchange():
    for gx, gy in itertools.product(GENERATORS, repeat=2):
        lhs = OqElement()
        rhs = OqElement()
        for (x1, x2), cx in coproduct_word(gx):
            for (y1, y2), cy in coproduct_word(gy):
                c = cx * cy
                lhs = lhs + multiply(OqElement.from_word(y1), OqElement.from_word(x1)).scale(
                    c * rho_word(x2, y2)
                )
                rhs = rhs + multiply(OqElement.from_word(x2), OqElement.from_word(y2)).scale(
                    c * rho_word(x1, y1)
                )
        assert lhs == rhs, (gx, gy)


_ST_WORDS = ["", "cap@0", "cup@0", "cup@0;cap@0", "x+@0", "x-@0", "x+@0;cap@0", "cup@0;x-@0"]


def _st_tangle_corpus():
    for word in _ST_WORDS:
        slices, n_out = parse_tangle_word(word)
        n_in = slices[0].in_strands if slices else n_out
        for left in itertools.product("+-", repeat=n_in):
            for right in itertools.product("+-", repeat=n_out):
                yield SlicedTangle(slices, left, right)


def _st_lift():
    for tangle in _st_tangle_corpus():
        assert counit(skein_element(tangle)) == rt_evaluate(tangle)


def _st_bracket_oracle():
    for tangle in _st_tangle_corpus():
        assert skein_element(tangle) == kauffman_reduce(tangle)


def _st_braided_exchange():
    a_left = BraidedElement.from_legs(("a", ""))
    a_right = BraidedElement.from_legs(("", "a"))
    both = BraidedElement.from_legs(("a", "a"))
    assert braided_product(a_left, a_right) == both
    assert braided_product(a_right, a_left, rho_variant="standard") == both.scale(q_power(1))
    assert braided_product(a_right, a_left, rho_variant="mirror") == both.scale(q_power(-1))


def _st_transmutation_square():
    a = OqElement.from_word("a")
    assert transmutation_product(a, a) == multiply(a, a)
    unit = OqElement.unit()
    for g in GENERATORS:
        x = OqElement.from_word(g)
        assert transmutation_product(unit, x) == x
        assert transmutation_product(x, unit) == x


def _st_corner_arcs():
    from .qtorus import qt_invert

    for corner in range(3):
        plus = corner_arc_image(StatedCornerArc(corner, ("+", "+")))
        minus = corner_arc_image(StatedCornerArc(corner, ("-", "-")))
        unit_el = qt_multiply(plus, minus)
        assert unit_el == qt_multiply(minus, plus)
        assert unit_el == triangle_element([])
        assert not corner_arc_image(StatedCornerArc(corner, ("-", "+"))).terms
        assert qt_invert(plus) == minus


def _square_surface():
    return Triangulation([("F0", (0, 1, 2)), ("F1", (0, 1, 2))], [("F0", 2, "F1", 2)])


def _st_trace_balanced():
    tri = _square_surface()
    for states in itertools.product("+-", repeat=2):
        curve = NormalCurve([("F0", 1, 2), ("F1", 2, 1)], end_states=states)
        assert check_balanced(tri, quantum_trace(tri, curve))


def _st_disjoint_commute():
    tri = _square_surface()
    for st1, st2 in itertools.product(itertools.product("+-", repeat=2), repeat=2):
        one = quantum_trace(tri, NormalCurve([("F0", 0, 1)], end_states=st1))
        two = quantum_trace(tri, NormalCurve([("F1", 0, 1)], end_states=st2))
        assert qt_multiply(one, two) == qt_multiply(two, one)


def _st_classical_crossing():
    import random
    from fractions import Fraction

    from .classical import SL2Matrix

    rng = random.Random(20240214)

    def rand_sl2():
        m = SL2Matrix.identity()
        for _ in range(rng.randint(1, 4)):
            x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if rng.random() < 0.5:
                m = m * SL2Matrix(((1, x), (0, 1)))
            else:
                m = m * SL2Matrix(((1, 0), (x, 1)))
        return m

    for _ in range(3):
        rep = GroupoidRep({n: rand_sl2() for n in ("al", "ar", "bl", "br")})
        for l0, l1, r0, r1 in itertools.product("+-", repeat=4):
            cross = trace_arc(rep, StatedPath(["al", "ar"], states=(l0, r1))) * trace_arc(
                rep, StatedPath(["bl", "br"], states=(l1, r0))
            )
            par = trace_arc(rep, StatedPath(["al", "br"], states=(l0, r0))) * trace_arc(
                rep, StatedPath(["bl", "ar"], states=(l1, r1))
            )
            turn = trace_arc(rep, StatedPath(["al", "~bl"], states=(l0, l1))) * trace_arc(
                rep, StatedPath(["~br", "O", "ar"], states=(r0, r1))
            )
            assert cross == par + turn
        for st in itertools.product("+-", repeat=2):
            path = StatedPath(["al", "CUT", "bl", "CUT", "br"], states=st)
            assert cut_check(rep, path) == trace_arc(rep, splice_cuts(path))
        dictionary = {g: StatedPath(["al"], states=st) for g, st in LETTER_STATES.items()}
        assert skein_vs_classical(
            multiply(OqElement.from_word("b"), OqElement.from_word("c")), rep, dictionary
        )


def _st_text_round_trip():
    import random

    rng = random.Random(4)
    for _ in range(25):
        x = OqElement()
        for _ in range(3):
            word = "".join(rng.choice(GENERATORS) for _ in range(rng.randint(0, 3)))
            coeff = half(rng.randint(-3, 3), rng.choice([-2, -1, 1, 2]))
            x = x + OqElement.from_word(word, coeff)
        text = element_to_string(x)
        assert element_to_string(parse_expression(text)) == text


_SELFTESTS = [
    ("hopf-coassociativity", _st_coassociativity),
    ("hopf-counit-antipode", _st_counit_antipode),
    ("hopf-pairing-exchange", _st_pairing_exchange),
    ("tangle-lift", _st_lift),
    ("tangle-bracket-oracle", _st_bracket_oracle),
    ("braided-exchange", _st_braided_exchange),
    ("braided-transmutation-square", _st_transmutation_square),
    ("qtorus-corner-arcs", _st_corner_arcs),
    ("qtrace-balanced", _st_trace_balanced),
    ("qtrace-disjoint-commute", _st_disjoint_commute),
    ("classical-identities", _st_classical_crossing),
    ("cli-round-trip", _st_text_round_trip),
]


def _cmd_selftest(args):
    lines = []
    passed = failed = 0
    results = []
    for name, check in _SELFTESTS:
        try:
            check()
        except AssertionError:
            failed += 1
            lines.append("FAIL %s" % name)
            results.append({"name": name, "ok": False})
        else:
            passed += 1
            lines.append("ok   %s" % name)
            results.append({"name": name, "ok": True})
    lines.append("%d passed, %d failed" % (passed, failed))
    return "\n".join(lines), {"failed": failed, "passed": passed, "results": results}


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bigon", description="Stated-skein algebra calculator."
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("normal-form", help="normal form of an algebra expression")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("hopf", help="coproduct, counit, antipode, pairing form")
    p.add_argument("op", choices=["coproduct", "counit", "antipode", "rho"])
    p.add_argument("--expr")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--kind", choices=["rho", "bar", "mirror"], default="rho")
    p.set_defaults(func=_cmd_hopf)

    p = sub.add_parser("tangle", help="evaluate sliced tangle words")
    p.add_argument("op", choices=["eval", "element"])
    p.add_argument("--word", required=True)
    p.add_argument("--left")
    p.add_argument("--right")
    p.set_defaults(func=_cmd_tangle)

    p = sub.add_parser("braided", help="multiply braided polygon elements")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--variant", choices=["standard", "mirror"], default="standard")
    p.set_defaults(func=_cmd_braided)

    p = sub.add_parser("qtrace", help="quantum trace of a normal curve")
    p.add_argument("--surface", required=True)
    p.add_argument("--curve", required=True)
    p.set_defaults(func=_cmd_qtrace)

    p = sub.add_parser("classical", help="rational traces of stated paths")
    p.add_argument("op", choices=["trace", "cut"])
    p.add_argument("--rep", required=True)
    p.add_argument("--path", required=True)
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.set_defaults(func=_cmd_selftest)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


# The parser of the first `main` call, kept for the later ones: it holds no
# per-call state, and its set_defaults(func=_cmd_*) bound each subcommand's
# handler when it was built.  A fresh `bigon` process still builds one parser.
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a state string such as -+ for a flag: bind the argument
    # after each --left and --right to it
    i = 0
    while i < len(argv) - 1:
        if argv[i] in ("--left", "--right"):
            argv[i : i + 2] = ["%s=%s" % (argv[i], argv[i + 1])]
        i += 1
    usage = io.StringIO()
    try:
        with contextlib.redirect_stderr(usage):
            args = _parser.parse_args(argv)
    except SystemExit as stop:
        # argparse writes its usage block, then "bigon ...: error: <message>"
        if stop.code:
            print("error: %s" % usage.getvalue().partition(": error: ")[2].strip(), file=sys.stderr)
        raise
    try:
        text, payload = args.func(args)
        if callable(payload):
            payload = payload() if args.json else {}
    except CliError as err:
        print("error: %s" % err, file=sys.stderr)
        return err.code
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2 if isinstance(err, ExpressionError) else 1
    print(json.dumps(payload, sort_keys=True) if args.json else text)
    # a failed selftest check is the one reply that exits nonzero
    return 1 if payload.get("failed") else 0


if __name__ == "__main__":
    raise SystemExit(main())
