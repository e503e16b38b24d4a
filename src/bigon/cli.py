"""Command line front end: parse expressions and files, print canonically.

Exit codes: 0 on success, 1 on a domain error (a legal request whose data is
rejected by the algebra), 2 on a parse error (malformed expression, word, or
file).  Output is deterministic: identical invocations print identical bytes.
"""

import argparse
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
    OqElement,
    antipode,
    co_r,
    co_r_mirror,
    coproduct,
    coproduct_word,
    counit,
    counit_word,
    element_to_string,
    multiply,
    rho_word,
)
from .qtorus import (
    NormalCurve,
    StatedCornerArc,
    Triangulation,
    check_balanced,
    corner_arc_image,
    qt_multiply,
    quantum_trace,
    triangle_element,
)
from .ring import ONE, HalfLaurent, add_to, format_qform, half, parse_vform, q_power
from .tangle import (
    SlicedTangle,
    TangleError,
    kauffman_reduce,
    parse_tangle_word,
    rt_evaluate,
    skein_element,
)


class ExpressionError(ValueError):
    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# the expression grammar: letters a,b,c,d and scalars q,v with ^, *, +, -, ()
# ---------------------------------------------------------------------------


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            if ch not in "abcdqv":
                raise ExpressionError("unknown identifier %r" % ch, i)
            tokens.append(("name", ch, i))
            i += 1
            continue
        if ch in "^*+-()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExpressionError("unexpected character %r" % ch, i)
    tokens.append(("end", None, len(text)))
    return tokens


def _scalar_element(coeff):
    return OqElement.from_word("", coeff)


def _power(x, n, pos):
    if n >= 0:
        out = _scalar_element(ONE)
        for _ in range(n):
            out = multiply(out, x)
        return out
    items = list(x.terms.items())
    if len(items) == 1 and items[0][0] == "":
        scalar = list(items[0][1].items())
        if len(scalar) == 1 and scalar[0][1] in (1, -1):
            e, s = scalar[0]
            base = HalfLaurent({-e: s})
            out = ONE
            for _ in range(-n):
                out = out * base
            return _scalar_element(out)
    raise ExpressionError("negative power of a non-invertible factor", pos)


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ExpressionError("expected %s" % kind, tok[2])
        self.i += 1
        return tok

    def parse(self):
        x = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError("trailing input", tok[2])
        return x

    def expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        x = self.term()
        if negate:
            x = x.scale(-ONE)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            y = self.term()
            x = x + y if op == "+" else x - y
        return x

    def term(self):
        x = self.factor()
        while self.peek()[0] == "*":
            self.take()
            x = multiply(x, self.factor())
        return x

    def factor(self):
        x = self.atom()
        if self.peek()[0] == "^":
            pos = self.take()[2]
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            n = self.take("int")[1]
            x = _power(x, sign * n, pos)
        return x

    def atom(self):
        kind, value, pos = self.take()
        if kind == "int":
            return _scalar_element(HalfLaurent({0: value}))
        if kind == "name":
            if value == "q":
                return _scalar_element(q_power(1))
            if value == "v":
                return _scalar_element(half(1))
            return OqElement.from_word(value)
        if kind == "(":
            x = self.expr()
            self.take(")")
            return x
        raise ExpressionError("expected a value", pos)


def parse_expression(text):
    """Parse the expression grammar into a normal-form element."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# leg-tuple terms (tensors and braided elements) share one text format
# ---------------------------------------------------------------------------


def _scalar_head(coeff):
    """(sign, head) where head is '' for 1, else a grammar-compatible factor."""
    items = sorted(coeff.items(), reverse=True)
    if len(items) != 1:
        return "+", "(%s)" % format_qform(coeff)
    e, n = items[0]
    sign = "-" if n < 0 else "+"
    n = abs(n)
    if e == 0:
        head = "" if n == 1 else str(n)
    else:
        if e % 2 == 0:
            base = "q" if e == 2 else "q^%d" % (e // 2)
        else:
            base = "v" if e == 1 else "v^%d" % e
        head = base if n == 1 else "%d*%s" % (n, base)
    return sign, head


def format_leg_terms(terms):
    """Canonical text for {leg words: coefficient} maps, e.g. ``q*(a|b)``."""
    if not terms:
        return "0"
    pieces = []
    for legs in sorted(terms):
        sign, head = _scalar_head(terms[legs])
        body = "(%s)" % "|".join(legs)
        pieces.append((sign, head + "*" + body if head else body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += (" - " if sign == "-" else " + ") + body
    return text


def parse_leg_terms(text):
    """Parse the output of format_leg_terms back into a terms map."""
    text = text.strip()
    if text == "0":
        return {}
    terms = {}
    i = 0
    sign = 1
    expect_term = True
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if not expect_term:
            if ch not in "+-":
                raise ExpressionError("expected + or - between terms", i)
            sign = 1 if ch == "+" else -1
            expect_term = True
            i += 1
            continue
        if ch == "-":
            sign = -sign
            i += 1
            continue
        coeff = ONE
        if ch == "(":
            close = text.find(")", i)
            if close < 0:
                raise ExpressionError("unbalanced parenthesis", i)
            if text[close : close + 2] == ")*":
                coeff = parse_vform(text[i + 1 : close])
                i = close + 2
                ch = text[i] if i < len(text) else ""
        else:
            star = text.find("*(", i)
            if star < 0:
                raise ExpressionError("expected a leg group", i)
            coeff = parse_vform(text[i:star])
            i = star + 1
            ch = text[i]
        if ch != "(":
            raise ExpressionError("expected a leg group", i)
        close = text.find(")", i)
        if close < 0:
            raise ExpressionError("unbalanced parenthesis", i)
        legs = tuple(text[i + 1 : close].split("|"))
        for leg in legs:
            if any(letter not in GENERATORS for letter in leg):
                raise ExpressionError("bad leg word %r" % leg, i)
        add_to(terms, legs, coeff if sign > 0 else -coeff)
        sign = 1
        expect_term = False
        i = close + 1
    if expect_term:
        raise ExpressionError("dangling sign", len(text))
    return terms


def parse_braided(text):
    terms = parse_leg_terms(text)
    if not terms:
        raise ExpressionError("cannot infer leg count of the zero element", 0)
    arities = {len(k) for k in terms}
    if len(arities) != 1:
        raise ExpressionError("mixed leg counts", 0)
    x = BraidedElement((arities.pop()))
    for legs, coeff in terms.items():
        x = x + BraidedElement.from_legs(legs, coeff)
    return x


def format_qtorus(x):
    lines = []
    for vec in sorted(x.terms):
        lines.append("%s * x^(%s)" % (format_qform(x.terms[vec]), ",".join(map(str, vec))))
    return "\n".join(lines) if lines else "0"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _element_json(x):
    words = sorted(x.terms, key=lambda w: (len(w), w))
    return {
        "terms": [{"word": w, "coefficient": format_qform(x.terms[w])} for w in words],
        "text": element_to_string(x),
    }


def _cmd_normal_form(args):
    x = parse_expression(args.expression)
    if args.json:
        return json.dumps(_element_json(x), sort_keys=True), 0
    return element_to_string(x), 0


def _cmd_hopf(args):
    if args.op in ("coproduct", "counit", "antipode"):
        if args.expr is None:
            raise CliError(2, "%s needs --expr" % args.op)
        x = parse_expression(args.expr)
        if args.op == "coproduct":
            terms = coproduct(x).terms
            if args.json:
                payload = [
                    {"legs": list(k), "coefficient": format_qform(terms[k])} for k in sorted(terms)
                ]
                return json.dumps({"terms": payload}, sort_keys=True), 0
            return format_leg_terms(terms), 0
        if args.op == "counit":
            value = counit(x)
            return (json.dumps({"value": format_qform(value)}) if args.json else format_qform(value)), 0
        y = antipode(x)
        return (json.dumps(_element_json(y), sort_keys=True) if args.json else element_to_string(y)), 0
    # pairing form
    if args.left is None or args.right is None:
        raise CliError(2, "rho needs --left and --right")
    x = parse_expression(args.left)
    y = parse_expression(args.right)
    if args.kind == "rho":
        value = co_r(x, y)
    elif args.kind == "bar":
        value = co_r(x, y, inverse=True)
    else:
        value = co_r_mirror(x, y)
    return (json.dumps({"value": format_qform(value)}) if args.json else format_qform(value)), 0


def _parse_states(text, pos_name):
    states = tuple(text)
    if any(s not in "+-" for s in states):
        raise CliError(2, "%s must be a string over +/-" % pos_name)
    return states


def _cmd_tangle(args):
    left = _parse_states(args.left, "--left") if args.left is not None else None
    right = _parse_states(args.right, "--right") if args.right is not None else None
    try:
        slices, n_out = parse_tangle_word(args.word, left_states=left)
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
    if args.op == "eval":
        value = rt_evaluate(tangle)
        return (json.dumps({"value": format_qform(value)}) if args.json else format_qform(value)), 0
    x = skein_element(tangle)
    return (json.dumps(_element_json(x), sort_keys=True) if args.json else element_to_string(x)), 0


def _cmd_braided(args):
    x = parse_braided(args.x)
    y = parse_braided(args.y)
    out = braided_product(x, y, rho_variant=args.variant)
    if args.json:
        payload = [
            {"legs": list(k), "coefficient": format_qform(out.terms[k])} for k in sorted(out.terms)
        ]
        return json.dumps({"terms": payload}, sort_keys=True), 0
    return format_leg_terms(out.terms), 0


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise CliError(2, str(err))
    except json.JSONDecodeError as err:
        raise CliError(2, "%s: %s" % (path, err))


def _cmd_qtrace(args):
    try:
        tri = Triangulation.from_dict(_load_json(args.surface))
        curve = NormalCurve.from_dict(_load_json(args.curve))
    except (KeyError, TypeError) as err:
        raise CliError(2, "malformed input file: %r" % err)
    x = quantum_trace(tri, curve)
    if not check_balanced(tri, x):
        raise CliError(1, "trace is not balanced")
    if args.json:
        payload = [
            {"coefficient": format_qform(x.terms[v]), "exponents": list(v)}
            for v in sorted(x.terms)
        ]
        return json.dumps({"terms": payload}, sort_keys=True), 0
    return format_qtorus(x), 0


def _cmd_classical(args):
    try:
        rep = GroupoidRep.from_dict(_load_json(args.rep))
        path = StatedPath.from_dict(_load_json(args.path))
    except (KeyError, TypeError) as err:
        raise CliError(2, "malformed input file: %r" % err)
    if args.op == "trace":
        value = trace_loop(rep, path) if path.closed else trace_arc(rep, path)
    else:
        value = cut_check(rep, path)
    return (json.dumps({"value": str(value)}) if args.json else str(value)), 0


# ---------------------------------------------------------------------------
# selftest: quick cross-checks of every module's core invariants
# ---------------------------------------------------------------------------


def _small_words():
    return [""] + list(GENERATORS) + [g1 + g2 for g1 in GENERATORS for g2 in GENERATORS]


def _st_coassociativity():
    for w in _small_words():
        left = {}
        right = {}
        for (w1, w2), c in coproduct_word(w):
            for (u1, u2), c1 in coproduct_word(w1):
                add_to(left, (u1, u2, w2), c * c1)
            for (u1, u2), c2 in coproduct_word(w2):
                add_to(right, (w1, u1, u2), c * c2)
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
        slices, n_out = parse_tangle_word(word, n0=2 if word and "cup" != word[:3] else None)
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
        dictionary = {
            g: StatedPath(["al"], states=st) for g, st in zip("abcd", ["++", "+-", "-+", "--"])
        }
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
            coeff = HalfLaurent({rng.randint(-3, 3): rng.choice([-2, -1, 1, 2])})
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
    code = 0 if failed == 0 else 1
    if args.json:
        return json.dumps({"failed": failed, "passed": passed, "results": results}, sort_keys=True), code
    return "\n".join(lines), code


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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("hopf", help="coproduct, counit, antipode, pairing form")
    p.add_argument("op", choices=["coproduct", "counit", "antipode", "rho"])
    p.add_argument("--expr")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--kind", choices=["rho", "bar", "mirror"], default="rho")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hopf)

    p = sub.add_parser("tangle", help="evaluate sliced tangle words")
    p.add_argument("op", choices=["eval", "element"])
    p.add_argument("--word", required=True)
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tangle)

    p = sub.add_parser("braided", help="multiply braided polygon elements")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--variant", choices=["standard", "mirror"], default="standard")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_braided)

    p = sub.add_parser("qtrace", help="quantum trace of a normal curve")
    p.add_argument("--surface", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_qtrace)

    p = sub.add_parser("classical", help="rational traces of stated paths")
    p.add_argument("op", choices=["trace", "cut"])
    p.add_argument("--rep", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = args.func(args)
    except ExpressionError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except CliError as err:
        print("error: %s" % err, file=sys.stderr)
        return err.code
    except (ValueError, RecursionError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    if text:
        print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
