"""Every state sum of the package runs through `ring.sweep`.

A hand-written fold is a `for` loop whose body binds a fresh empty dict and
rebinds a name the loop reads (a loop-carried name) to a value built from
it: the "expand each key into a fresh dict, merge, repeat" pattern that
`ring.sweep` alone owns.  `ring.expand` is a sweep of one step, with no loop
of its own, and no other module may write one.
"""

import ast
import pathlib

import bigon

PACKAGE = pathlib.Path(bigon.__file__).parent


def _is_empty_dict(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
        and not node.args
        and not node.keywords
    )


def _names(node, ctx):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


def hand_folds(path):
    """The (function, line) of every hand-written fold loop in one source file."""
    owner = {}  # loop -> innermost enclosing function; ast.walk visits outer ones first
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    owner[node] = func.name
    found = []
    for loop, name in owner.items():
        inside = [node for statement in loop.body for node in ast.walk(statement)]
        assigns = [node for node in inside if isinstance(node, ast.Assign)]
        fresh = {t.id for a in assigns if _is_empty_dict(a.value) for t in a.targets if isinstance(t, ast.Name)}
        read = set().union(*(_names(node, ast.Load) for node in loop.body))
        for a in assigns:
            rebound = {t.id for t in a.targets if isinstance(t, ast.Name)} - fresh
            if rebound & read and _names(a.value, ast.Load) & fresh:
                found.append((name, loop.lineno))
    return sorted(found, key=lambda f: f[1])


def test_no_module_but_ring_folds_by_hand():
    folds = {
        path.name: hand_folds(path) for path in sorted(PACKAGE.glob("*.py")) if path.name != "ring.py"
    }
    assert {name: found for name, found in folds.items() if found} == {}


def test_ring_folds_once_in_sweep():
    ring = PACKAGE / "ring.py"
    assert [name for name, _ in hand_folds(ring)] == ["sweep"]
    expand = next(
        node
        for node in ast.parse(ring.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "expand"
    )
    assert not [node for node in ast.walk(expand) if isinstance(node, (ast.For, ast.While, ast.comprehension))]


def test_a_hand_written_fold_is_seen(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        # the shape sweep replaces: a loop-carried dict rebound to a fresh one
        "def folded(terms, steps):\n"
        "    for g in steps:\n"
        "        nxt = {}\n"
        "        for w, c in terms.items():\n"
        "            nxt[w + g] = c\n"
        "        terms = nxt\n"
        "    return terms\n"
        "\n\n"
        # rebinding through a constructor counts too
        "def wrapped(x, letters):\n"
        "    for letter in letters:\n"
        "        out = dict()\n"
        "        for w, c in x.terms.items():\n"
        "            out[w] = c\n"
        "        x = Element(out)\n"
        "    return x\n"
        "\n\n"
        # one accumulator filled across the loop, as tangle._glue_sum does, is not a fold
        "def accumulated(pieces):\n"
        "    out = {}\n"
        "    for piece in pieces:\n"
        "        local = {}\n"
        "        for mono, c in piece.items():\n"
        "            local[mono] = c\n"
        "        out.update(local)\n"
        "    return out\n"
    )
    assert hand_folds(source) == [("folded", 2), ("wrapped", 11)]
