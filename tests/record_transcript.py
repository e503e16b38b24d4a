"""The committed CLI transcript, `tests/cli_transcript.jsonl`, and its recorder.

Each line of the transcript is one `bigon` invocation: its argv, the input
files it reads (name -> text, written into an empty directory that is the
working directory of the run), and the stdout, stderr and exit code it gave.
`test_transcript` replays every line through `cli.main` and asks for the same
bytes, so a change that keeps the CLI's behaviour leaves the file as it is.

To rewrite the file from the code as it stands, from the repository root:

    PYTHONPATH=src python tests/record_transcript.py

A recorded line is never regenerated to make a change pass: a line that
replays differently is a change of behaviour.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

from bigon.cli import main

TRANSCRIPT = pathlib.Path(__file__).resolve().with_name("cli_transcript.jsonl")


def run(argv, files, where):
    """Write `files` into the directory `where`, run `main(argv)` there, and return
    the transcript line: argv, files, stdout, stderr and the exit code."""
    for name, text in files.items():
        (where / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as stop:  # argparse's usage errors
                code = stop.code
    finally:
        os.chdir(home)
    return {"argv": list(argv), "files": files, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


SQUARE = json.dumps({
    "faces": [{"id": "F0", "sides": [0, 1, 2]}, {"id": "F1", "sides": [0, 1, 2]}],
    "gluings": [["F0", 2, "F1", 2]],
})
ARC = json.dumps({
    "steps": [{"face": "F0", "enter": 1, "exit": 2}, {"face": "F1", "enter": 2, "exit": 1}],
    "closed": False,
    "states": "++",
})
TORUS = json.dumps({
    "faces": [{"id": "F0", "sides": [0, 1, 2]}, {"id": "F1", "sides": [0, 1, 2]}],
    "gluings": [["F0", 0, "F1", 0], ["F0", 1, "F1", 1], ["F0", 2, "F1", 2]],
})
# the peripheral loop, each face visited three times, and a loop meeting each face once
PERIPHERAL = json.dumps({
    "steps": [
        {"face": f, "enter": a, "exit": b}
        for f, a, b in (("F0", 0, 1), ("F1", 1, 2), ("F0", 2, 0), ("F1", 0, 1), ("F0", 1, 2), ("F1", 2, 0))
    ],
    "closed": True,
})
ALPHA = json.dumps({"steps": [{"face": "F0", "enter": 0, "exit": 1}, {"face": "F1", "enter": 1, "exit": 0}], "closed": True})
REP = json.dumps({"generators": {"g": [["2", "3"], ["1", "2"]]}})
REP3 = json.dumps({
    "generators": {
        "g": [["2", "3"], ["1", "2"]],
        "h": [["1/2", "-3/4"], ["1", "1/2"]],
        "k": [["1", "-2/3"], ["0", "1"]],
    }
})
REP_FIBERS = json.dumps({
    "generators": {
        "g": [["7/4", "1/2"], ["3/2", "1"]],
        "sqrtO": [["0", "-1"], ["1", "0"]],
        "O": [["-1", "0"], ["0", "-1"]],
    }
})
PATH_G = json.dumps({"word": ["g"], "states": "+-"})
WORD40 = ["g", "~h", "sqrtO-", "k", "O", "~g", "h", "~k"] * 5
# 512 and 1024 coefficient terms, each built by products far inside the size budget
SPARSE_A = "*".join("(1+q^%d)" % 2**k for k in range(9))
SPARSE_B = "*".join(["(1+q^512)", "(1+q^1024)", "(1+q^2048)", "(1+q^4096)"] + ["(1+(q^4096)^%d)" % 2**k for k in range(1, 7)])


def _qtrace(surface, curve, *flags):
    return ["qtrace", "--surface", "surface.json", "--curve", "curve.json", *flags], {
        "surface.json": surface,
        "curve.json": curve,
    }


def _classical(op, rep, path, *flags):
    return ["classical", op, "--rep", "rep.json", "--path", "path.json", *flags], {
        "rep.json": rep,
        "path.json": path,
    }


def _plain(*argv):
    return list(argv), {}


def cases():
    """(argv, files) of every recorded invocation, in transcript order."""
    return [
        # the README's command lines, the files its tour writes included
        _plain("normal-form", "b*c"),
        _plain("tangle", "eval", "--word", "cup@0;cap@0"),
        _plain("tangle", "eval", "--word", "cap@0", "--left", "-+"),
        _plain("hopf", "rho", "--left", "b", "--right", "c"),
        _plain("hopf", "coproduct", "--expr", "a"),
        _plain("braided", "--x", "(|a)", "--y", "(a|)"),
        _qtrace(SQUARE, ARC),
        _classical("trace", REP, json.dumps({"word": ["g"], "states": "+-", "closed": False})),
        _plain("selftest"),
        _plain("selftest", "--json"),
        # one of each CLI request shape of the algebra benchmark
        _plain("normal-form", "d^2*a^4"),
        _plain("normal-form", "b*a*c*d*d*a*b*c"),
        _plain("normal-form", "a^2*b^2*d*a*c^2*d^2"),
        _plain("hopf", "coproduct", "--expr", "a^3*d^3"),
        _plain("hopf", "coproduct", "--expr", "a^2*b^4*d^2"),
        _plain("hopf", "rho", "--left", "a*b^2*d", "--right", "a^2*d^2", "--kind", "rho"),
        _plain("hopf", "rho", "--left", "a*b^4*d", "--right", "a^3*d^3", "--kind", "bar"),
        _plain("hopf", "rho", "--left", "a*b^4*d", "--right", "a^3*d^3", "--kind", "mirror"),
        _plain("braided", "--x", "(aad|bb)", "--y", "(ccc|ad)"),
        # every branch of the printers: signs, multi-digit and huge coefficients,
        # odd and negative v-powers, constants, zero, multi-term coefficients
        _plain("normal-form", "a - a"),
        _plain("normal-form", "0"),
        _plain("normal-form", "1"),
        _plain("normal-form", "-1"),
        _plain("normal-form", "-17"),
        _plain("normal-form", "v"),
        _plain("normal-form", "--", "-v^-3"),
        _plain("normal-form", "q"),
        _plain("normal-form", "--", "-q^-1"),
        _plain("normal-form", "-q^-1"),
        _plain("normal-form", "2*q^-1*b"),
        _plain("normal-form", "10^30*q^-600 - 10^30*v^599"),
        _plain("normal-form", "(q+1)^3*b - 17*v^3*c + v^-1 - 2*a*d + 10^30*q^-600*d^3"),
        _plain("normal-form", "(v - 2*v^-1)*a^2*c^3 - (q^2 - 1)*b + 3*d - v*a + c^12"),
        _plain("normal-form", "(1 - q)^5*a*d + (-q + 1)*b - (v^3 + 2)*c", "--json"),
        _plain("normal-form", "d*a - a*d"),
        _plain("normal-form", "(a + b + d)^4"),
        _plain("normal-form", "(q*b)^5 + 2^10*a^3 - v^7*d^7"),
        _plain("normal-form", "q^-2*(a+1)^-1"),
        _plain("normal-form", "(q^3)^-2 + (-v)^-3"),
        _plain("hopf", "counit", "--expr", "a*d + (q-1)*b*c + v^3"),
        _plain("hopf", "counit", "--expr", "b", "--json"),
        _plain("hopf", "antipode", "--expr", "(2*v^-1 - 1)*a*b + c^2"),
        _plain("hopf", "antipode", "--expr", "b*c", "--json"),
        _plain("hopf", "coproduct", "--expr", "(q - 2)*b^2 - v", "--json"),
        _plain("hopf", "rho", "--left", "b^3", "--right", "c^3", "--kind", "bar", "--json"),
        _plain("braided", "--x", "(q + 1)*(a|b) - q^-2*(c|)", "--y", "(|d) + v^3*(b|)", "--variant", "mirror"),
        _plain("braided", "--x", "(a|)", "--y", "17*(d|c) - v^-1*(|)", "--json"),
        _plain("braided", "--x", "(a|)", "--y", "(a)"),
        _plain("tangle", "element", "--word", "cup@1;x+@0;cap@1", "--left", "+", "--right", "-"),
        _plain("tangle", "element", "--word", "cup@1;x+@0;cap@1", "--left", "+", "--right", "-", "--json"),
        _plain("tangle", "element", "--word", "x-@0", "--left", "+-", "--right", "-+"),
        _plain("tangle", "eval", "--word", "x+@0;cap@0", "--left", "-+", "--json"),
        _plain("tangle", "eval", "--word", "id2"),
        _plain("tangle", "eval", "--word", "cap@3", "--left", "++"),
        # the budgets: refused, and answered at the bound
        _plain("normal-form", "d^41*a^40"),
        _plain("normal-form", "a^4097"),
        _plain("normal-form", "a^-4097"),
        _plain("normal-form", "a^99999999"),
        _plain("normal-form", "(q+1)^512"),
        _plain("normal-form", "(q+1)^4096"),
        _plain("normal-form", "(a+d)^24"),
        _plain("normal-form", "(d^40+d^39+d^38)*(a^40+a^39+a^38)"),
        _plain("normal-form", "a^4096"),
        _plain("normal-form", "(q*b)^64 - v^-64*c^64"),
        _plain("braided", "--x", "(q+1)^4096*(a|)", "--y", "(|)"),
        _plain("braided", "--x", "(d|d|d|d|d|d)", "--y", "(a|a|a|a|a|aa)"),
        _plain("hopf", "coproduct", "--expr", "a^12*d^13"),
        _plain("hopf", "rho", "--left", "a^25", "--right", "d"),
        _plain("hopf", "rho", "--left", "a^13", "--right", "d"),
        _plain("tangle", "eval", "--word", ";".join(["cup@0"] * 12), "--right", "+-" * 12),
        _plain("tangle", "element", "--word", "id25", "--left", "+" * 25, "--right", "+" * 25),
        # parse and usage errors
        _plain("normal-form", "a + e"),
        _plain("normal-form", "a*(b"),
        _plain("normal-form", "a^"),
        _plain("normal-form", "a^-1"),
        _plain("normal-form", "(q+1)^-1"),
        _plain("normal-form", "(" * 201 + "a" + ")" * 201),
        _plain("braided", "--x", "(q^)*(a|b)", "--y", "(|)"),
        _plain("braided", "--x", "q", "--y", "(|)"),
        _plain(),
        _plain("hopf", "coproduct"),
        _plain("hopf", "rho", "--left", "a"),
        _plain("normal-form", "--bogus", "a"),
        _plain("tangle", "eval", "--word", "cap@0", "--left", "+x"),
        _plain("tangle", "eval", "--word", "cap@0"),
        _plain("tangle", "eval", "--word", "frob@0"),
        # the input files of qtrace, good and malformed
        _qtrace(SQUARE, ARC, "--json"),
        _qtrace(TORUS, PERIPHERAL),
        _qtrace(TORUS, PERIPHERAL, "--json"),
        _qtrace(TORUS, ALPHA),
        _qtrace(SQUARE, json.dumps(dict(json.loads(ARC), states="-+"))),
        _qtrace(SQUARE, "{not json"),
        _qtrace(SQUARE, json.dumps({"nope": 1})),
        _qtrace(SQUARE, json.dumps({"steps": [{"face": "F0", "enter": 1, "exit": 1}], "closed": True})),
        _qtrace(SQUARE, json.dumps(dict(json.loads(ARC), states={"+": 1, "-": 2}))),
        _qtrace(SQUARE, json.dumps(dict(json.loads(ARC), closed="no"))),
        _qtrace(json.dumps({"faces": "F0"}), ARC),
        (["qtrace", "--surface", "missing.json", "--curve", "curve.json"], {"curve.json": ARC}),
        # and of classical
        _classical("trace", REP, json.dumps({"word": ["g"], "closed": True})),
        _classical("cut", REP, json.dumps({"word": ["g", "CUT", "g"], "states": "++", "closed": False})),
        _classical("cut", REP, json.dumps({"word": ["g", "CUT", "g"], "states": "++"}), "--json"),
        _classical("trace", REP, json.dumps({"word": ["g", "sqrtO-", "g"], "states": "++"}), "--json"),
        _classical("trace", REP3, json.dumps({"word": WORD40, "states": "+-"})),
        _classical("trace", REP3, json.dumps({"word": WORD40, "closed": True})),
        _classical("trace", REP3, json.dumps({"word": WORD40[:20] + ["~x"] + WORD40[20:], "states": "++"})),
        _classical("trace", REP, json.dumps({"word": ["h"], "states": "++"})),
        _classical("trace", REP, json.dumps({"word": ["g"], "states": {"+": 1, "-": 2}})),
        _classical("trace", REP, json.dumps({"word": ["g"], "states": "+-", "closed": 1})),
        _classical("trace", REP, SQUARE),
        _classical("cut", json.dumps({"generators": {"g": [["1/0", "3"], ["1", "2"]]}}), json.dumps({"word": ["g"], "states": "+-"})),
        _classical("trace", json.dumps({"generators": {"g": [["1", "0"]]}}), json.dumps({"word": ["g"], "states": "+-"})),
        _classical("trace", json.dumps({"generators": {"g": [["2", "3"], ["1", "3"]]}}), json.dumps({"word": ["g"], "states": "+-"})),
        _classical("trace", json.dumps({"generators": {"CUT": [["2", "3"], ["1", "2"]]}}), json.dumps({"word": ["CUT"], "states": "+-"})),
        _classical("trace", "[1, 2", json.dumps({"word": ["g"], "states": "+-"})),
        (["classical", "trace", "--rep", "missing.json", "--path", "path.json"], {"path.json": json.dumps({"word": ["g"]})}),
        _classical("trace", "[" * 5000 + "]" * 5000, json.dumps({"word": ["g"], "states": "+-"})),
        _classical("cut", REP, '{"word": [' + "7" * 5000 + "]}"),
        # the rest of the budget tests' refusals, and of the usage errors
        _plain("normal-form", "(a+d)^64"),
        _plain("normal-form", "(%s)*(%s)" % (SPARSE_A, SPARSE_B)),
        _plain("normal-form", "(%s)^2" % SPARSE_B),
        _plain("normal-form", "(q+1)^511*((q+1)^300*(q+1)^300)"),
        _plain("braided", "--x", "(q+1)^511*((q+1)^511*(q+1)*(a|))", "--y", "(|)"),
        _plain("hopf", "rho", "--left", "a^64", "--right", "d^64"),
        _plain("hopf", "rho", "--left", "b", "--right", "(a+d)^5", "--kind", "bar"),
        _plain("hopf", "coproduct", "--expr", "a^128"),
        _plain("braided", "--x", "(%sa)" % ("|" * 1199), "--y", "(a%s)" % ("|" * 1199)),
        _plain("braided", "--x", "(%s)" % "|".join(["ad"] * 6), "--y", "(%s)" % "|".join(["ad"] * 6)),
        _plain("braided", "--x", "(%s)" % "|".join(["d"] * 10), "--y", "(%s)" % "|".join(["a"] * 10)),
        _plain("braided", "--x", "(%s|)" % ("d" * 80 + "a" * 80), "--y", "(|)"),
        _plain("tangle", "eval", "--word", ";".join(["cup@0"] * 11), "--right", "+-" * 11),
        _plain("tangle", "eval", "--word", ";".join(["cup@0"] * 40), "--right", "+-" * 40),
        _plain("tangle", "element", "--word", ";".join(["cup@0"] * 40), "--right", "+-" * 40),
        _plain("tangle", "element", "--word", "id200", "--left", "+-" * 100, "--right", "+-" * 100),
        _plain("normal-form"),
        _plain("tangle", "eval", "--word"),
        _plain("tangle", "eval", "--word", "cap@0", "--left"),
        _plain("hopf", "split"),
        # classical files with two faults each: which check speaks first
        _classical("trace", json.dumps({"generators": {"g": [["1/0", "3"], ["1", "2"]], "h": [["1", "0"]]}}), PATH_G),
        _classical("trace", json.dumps({"generators": {"g": [["2", "3"], ["1", "3"]], "h": [["x", "0"], ["0", "1"]]}}), PATH_G),
        _classical("trace", json.dumps({"generators": {"~g": [["1", "0"], ["0", "1"]], "h": [["2", "3"], ["1", "3"]]}}), PATH_G),
        _classical("trace", json.dumps({"generators": {"sqrtO": [["1", "0"], ["0", "1"]], "CUT": [["1", "0"], ["0", "1"]]}}), PATH_G),
        # the fiber elements given explicitly, and paths through every token
        _classical("trace", REP_FIBERS, json.dumps({"word": ["g", "sqrtO", "~g", "O"], "states": "-+"})),
        _classical("trace", REP_FIBERS, json.dumps({"word": ["sqrtO", "g", "O", "sqrtO-"], "closed": True})),
        _classical("trace", REP3, json.dumps({"word": ["~g", "sqrtO-", "h", "O", "~k"], "states": "+-"})),
        _classical("trace", REP3, json.dumps({"word": ["~h", "sqrtO-", "O", "~h", "k"], "closed": True}), "--json"),
        _classical("cut", REP3, json.dumps({"word": ["g", "~h", "CUT", "sqrtO-", "k", "CUT", "O", "~g"], "states": "-+"})),
        _classical("cut", REP3, json.dumps({"word": ["~k", "CUT", "O", "CUT", "sqrtO-", "~h"], "states": "+-"}), "--json"),
        # a word with outgoing strands and no --right
        _plain("tangle", "eval", "--word", "cup@0"),
        _plain("tangle", "element", "--word", "cup@0"),
    ]


def record():
    with tempfile.TemporaryDirectory() as scratch:
        lines = []
        for i, (argv, files) in enumerate(cases()):
            where = pathlib.Path(scratch, str(i))
            where.mkdir()
            lines.append(json.dumps(run(argv, files, where), sort_keys=True, ensure_ascii=False))
    TRANSCRIPT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


if __name__ == "__main__":
    print("%d lines written to %s" % (record(), TRANSCRIPT.name))
