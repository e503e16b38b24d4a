"""Each module of the package imports only the layers below it.

Every import statement counts, including those inside functions.
"""

import ast
import collections
import doctest
import pathlib
import re

import bigon

PACKAGE = pathlib.Path(bigon.__file__).parent
# lowest first, as the package docstring lists them
LAYERS = ["ring", "hopf", "tangle", "braided", "qtorus", "classical", "cli"]


def imported_modules(path):
    """The package modules that one source file imports, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                names = [node.module] if node.module else [alias.name for alias in node.names]
            elif node.level == 0 and node.module and node.module.split(".")[0] == "bigon":
                parts = node.module.split(".")
                names = parts[1:2] or [alias.name for alias in node.names]
            else:
                continue
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("bigon.")]
        else:
            continue
        out.update(name.split(".")[0] for name in names)
    return out


def test_the_layers_are_every_module_in_the_docstring_order():
    assert re.findall(r"^\* ``(\w+)``", bigon.__doc__, re.M) == LAYERS
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(LAYERS) == sorted(modules)


def test_each_module_imports_only_earlier_layers():
    upward = []
    for rank, name in enumerate(LAYERS):
        for dep in sorted(imported_modules(PACKAGE / (name + ".py"))):
            if dep not in LAYERS[:rank]:
                upward.append((name, dep))
    assert upward == []


def test_an_upward_import_inside_a_function_is_seen(tmp_path):
    source = tmp_path / "low.py"
    source.write_text("def f():\n    from . import cli\n    from .tangle import rt_evaluate\n    import bigon.qtorus\n")
    assert imported_modules(source) == {"cli", "tangle", "qtorus"}


def _defined_names(statement):
    """The names one top-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = []
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def _used_names(statement):
    """The names one top-level statement reads, imports or looks up as attributes."""
    out = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def stranded_helpers(paths):
    """Private top-level names that no other top-level statement of `paths` uses."""
    statements = [st for path in paths for st in ast.parse(path.read_text(), str(path)).body]
    uses = [_used_names(st) for st in statements]
    stranded = []
    for i, st in enumerate(statements):
        for name in sorted(_defined_names(st)):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in used for j, used in enumerate(uses) if j != i):
                stranded.append(name)
    return stranded


def test_every_private_helper_is_used():
    assert stranded_helpers(sorted(PACKAGE.glob("*.py"))) == []


def test_a_stranded_helper_is_seen(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "_TABLE = {}\n\n\ndef _used():\n    return _TABLE\n\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n\n"
        "def public():\n    return _used()\n"
    )
    assert stranded_helpers([source]) == ["_recursive"]


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _reads(tree):
    """How often each name is read in `tree`, as a name or as an attribute."""
    loads = (node for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Load))
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in loads
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def readme_names(text):
    """The names a README's Python session reads and its inline code spans name."""
    session = "\n".join(re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S))
    names = set()
    for example in doctest.DocTestParser().get_examples(session):
        names.update(_reads(ast.parse(example.source)))
    spans = re.findall(r"`([\w.]+)(?:\(.*?\))?`", text)
    return names | {part for span in spans for part in span.split(".")}


def unread_public_names(defining, reading, readme=""):
    """Public functions, classes and methods (dunders exempt) defined in `defining` that no
    file of `reading` reads outside their own body, and that `readme` does not name."""
    reads = collections.Counter()
    for path in reading:
        reads.update(_reads(ast.parse(path.read_text(), str(path))))
    named = readme_names(readme)
    unread = []
    for path in defining:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in named:
                continue
            if reads[node.name] == _reads(node)[node.name]:
                unread.append(node.name)
    return unread


def test_every_public_name_is_read():
    reading = [path for folder in ("src", "tests", "bench") for path in sorted((ROOT / folder).rglob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    assert unread_public_names(sorted(PACKAGE.glob("*.py")), reading, readme) == []


def test_a_stranded_public_name_is_seen(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "class Poly:\n    def __len__(self):\n        return 0\n\n"
        "    def degree(self):\n        return self.lead()\n\n"
        "    def lead(self):\n        return 0\n\n"
        "    def coefficient(self, exp):\n        return 0\n\n\n"
        "def countdown(n):\n    return countdown(n - 1) if n else Poly().degree()\n\n\n"
        "def shown():\n    return {'coefficient': 0, 'countdown': 1}\n"
    )
    readme = "```python\n>>> from mod import shown\n>>> shown()['countdown']\n1\n\n```\n`coefficient*`\n"
    assert unread_public_names([source], [source], readme) == ["countdown", "coefficient"]


def readers(paths, name):
    """The top-level names whose statements in `paths` read `name`."""
    statements = [st for path in paths for st in ast.parse(path.read_text(), str(path)).body]
    return {defined for st in statements if name in _used_names(st) for defined in _defined_names(st)}


def test_normal_word_is_the_only_straightening_path():
    # one product of basis words: every other caller goes through the memoised normal form
    assert readers(sorted(PACKAGE.glob("*.py")), "_word_product") == {"normal_word"}


def test_only_the_cli_takes_the_antipode_of_an_element():
    # the antipode of a basis word is one basis word (`hopf.antipode_word`): the
    # coactions map words, and only the CLI command and its self-check read `antipode`
    paths = sorted(PACKAGE.glob("*.py"))
    assert readers(paths, "antipode") == {"_cmd_hopf", "_st_counit_antipode"}
    braided = ast.parse((PACKAGE / "braided.py").read_text())
    imported = {alias.name for node in ast.walk(braided) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported.isdisjoint({"antipode", "multiply"})


def test_only_temperley_lieb_reads_the_fraction():
    # `RatFunc` is a plain fraction kept for the Temperley-Lieb coefficients;
    # no other layer may come to rely on it
    paths = sorted(PACKAGE.glob("*.py"))
    assert readers(paths, "RatFunc") == {"RatFunc", "_coerce_rf", "TLElement", "tl_product", "jones_wenzl"}


def test_a_second_reader_is_seen(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def _word_product(w1, w2):\n    return w1 + w2\n\n\n"
        "def normal_word(w):\n    return _word_product(w, '')\n\n\n"
        "class Leg:\n    def times(self, w):\n        return hopf._word_product(self.w, w)\n"
    )
    assert readers([source], "_word_product") == {"normal_word", "Leg"}


def binders(paths, name):
    """The modules among `paths` whose top-level statements bind `name` (an import does not)."""
    return {
        path.stem
        for path in paths
        for st in ast.parse(path.read_text(), str(path)).body
        if name in _defined_names(st)
    }


SHARED_TABLES = ("STATES", "GENERATORS", "LETTER_STATES", "STATE_LETTERS")


def test_each_shared_table_is_bound_by_one_module():
    paths = sorted(PACKAGE.glob("*.py"))
    assert {name: binders(paths, name) for name in SHARED_TABLES} == {
        name: {"hopf"} for name in SHARED_TABLES
    }


def test_no_module_divides_a_polynomial():
    # Jones-Wenzl is built by the single-clasp expansion, so no general divider is
    # left; the one exact pass is the q-binomials' and hopf's closed forms' ratio step
    paths = sorted(PACKAGE.glob("*.py"))
    assert {name: binders(paths, name) for name in ("divexact", "_dense_divmod")} == {
        "divexact": set(),
        "_dense_divmod": set(),
    }
    assert readers(paths, "one_minus_power") == {"q_binom", "_d_times_a", "_b_times_c"}


def test_a_second_binding_is_seen(tmp_path):
    low, high = tmp_path / "low.py", tmp_path / "high.py"
    low.write_text('GENERATORS = "abcd"\nSTATES = ("+", "-")\n')
    high.write_text(
        "from .low import GENERATORS\n\nSTATES, SIGNS = tuple(\"+-\"), (1, -1)\n\n\n"
        "def f():\n    GENERATORS = 'ab'\n    return GENERATORS\n"
    )
    assert binders([low, high], "STATES") == {"low", "high"}
    assert binders([low, high], "GENERATORS") == {"low"}


def _base_names(node):
    return {base.id if isinstance(base, ast.Name) else getattr(base, "attr", None) for base in node.bases}


def products_outside_the_rule(paths):
    """The `Combination` subclasses in `paths`, at any remove, that define `__mul__` or `__rmul__`."""
    classes = [
        node
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
    ]
    family = {"Combination"}
    for _ in classes:  # each pass reaches one generation of subclasses further
        family |= {node.name for node in classes if _base_names(node) & family}
    products = {"__mul__", "__rmul__"}
    return {
        node.name
        for node in classes
        if _base_names(node) & family and products & set().union(*map(_defined_names, node.body))
    }


def test_every_combination_multiplies_through_the_one_product_rule():
    # scalars and the product of two elements are dispatched once, in ring.Combination
    assert products_outside_the_rule(sorted(PACKAGE.glob("*.py"))) == set()


def test_a_second_product_rule_is_seen(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "class Combination:\n    def __mul__(self, other):\n        return self\n\n\n"
        "class Leg(Combination):\n    def __mul__(self, other):\n        return other\n\n\n"
        "class Tail(Leg):\n    __rmul__ = Leg.__mul__\n\n\n"
        "class Scalar:\n    def __mul__(self, other):\n        return other\n\n\n"
        "class Plain(ring.Combination):\n    def product(self, other, times):\n        return self\n"
    )
    assert products_outside_the_rule([source]) == {"Leg", "Tail"}


_MEMO_NAMES = {"lru_cache", "cache"}


def _is_memo(node):
    """Whether a decorator or call is `lru_cache`/`cache`, bare, called, or under `functools.`."""
    while isinstance(node, ast.Call):
        node = node.func
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) in _MEMO_NAMES


def memoised(paths):
    """The "module.name" of every function in `paths` memoised by a decorator or by
    `f = functools.lru_cache(...)(g)`."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                map(_is_memo, node.decorator_list)
            ):
                out.add("%s.%s" % (path.stem, node.name))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and _is_memo(node.value):
                out |= {"%s.%s" % (path.stem, name) for name in _defined_names(node)}
    return out


# the sweeps and recursions, not the closed forms under them: a hit on one of those saves under a microsecond
MEMOS = {
    "hopf.normal_word",
    "hopf.coproduct_word",
    "hopf.rho_word",
    "braided._block_coproduct",
    "braided._mul_legs",
    "tangle._flat_diagram",
    "tangle.jones_wenzl",
}


def test_the_memoised_functions_are_the_seven_sweeps_and_recursions():
    assert memoised(sorted(PACKAGE.glob("*.py"))) == MEMOS


def test_a_new_memo_is_seen(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import functools\nfrom functools import cache, lru_cache\n\n\n"
        "def power(m):\n    return m\n\n\n"
        "_power = functools.lru_cache(maxsize=None)(power)\n"
        "_bare = lru_cache(power)\n"
        "_plain = power\n\n\n"
        "@functools.lru_cache(maxsize=None)\ndef swept(w):\n    return w\n\n\n"
        "@cache\ndef closed(w):\n    return w\n\n\n"
        "class Table:\n    @functools.cache\n    def row(self, i):\n        return i\n\n"
        "    @staticmethod\n    def plain(i):\n        return i\n"
    )
    assert memoised([source]) == {"mod._power", "mod._bare", "mod.swept", "mod.closed", "mod.row"}


def _units(statement):
    """One top-level statement as (label, node) pairs: each method of a class is its own
    "Class.method" unit, and any other statement is labelled by the names it binds."""
    if not isinstance(statement, ast.ClassDef):
        return [(name, statement) for name in _defined_names(statement)]
    out = []
    for node in statement.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(("%s.%s" % (statement.name, node.name), node))
        else:
            out.append((statement.name, node))
    return out


def callers(paths, name):
    """The functions and methods ("Class.method") of `paths` that read `name`."""
    return {
        label
        for path in paths
        for st in ast.parse(path.read_text(), str(path)).body
        for label, node in _units(st)
        if name in _used_names(node)
    }


def test_unchecked_matrices_come_only_from_the_arithmetic():
    # a product, inverse, negation or state table of determinant-one matrices has
    # determinant one, and so has a reversed piece's -g^-1 and a path's fold of its
    # token matrices; every matrix from outside goes through the checking constructor
    assert callers(sorted(PACKAGE.glob("*.py")), "_sl2") == {
        "SL2Matrix.__mul__",
        "SL2Matrix.inverse",
        "SL2Matrix.__neg__",
        "_state_matrix",
        "_token_matrix",
        "_fold",
    }


def test_an_unchecked_matrix_from_outside_is_seen(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def _sl2(nums, den):\n    return nums\n\n\n"
        "class SL2Matrix:\n    __slots__ = ('nums',)\n\n    def inverse(self):\n        return _sl2(self.nums, 1)\n\n\n"
        "class GroupoidRep:\n    @classmethod\n    def from_dict(cls, data):\n        return classical._sl2(data, 1)\n\n\n"
        "_ONE = _sl2((1, 0, 0, 1), 1)\n"
    )
    assert callers([source], "_sl2") == {"SL2Matrix.inverse", "GroupoidRep.from_dict", "_ONE"}


def test_unchecked_tori_and_elements_come_only_from_the_trace():
    # the per-face torus is a block sum of the checked triangle torus, the edge torus
    # a sum of face contributions kept below the diagonal, and a trace's keys are
    # integer vectors the sweep builds at that rank
    paths = sorted(PACKAGE.glob("*.py"))
    assert callers(paths, "_torus") == {"ambient_torus", "chekhov_fock"}
    assert callers(paths, "_qt_element") == {"quantum_trace"}


def test_an_unchecked_torus_or_element_from_outside_is_seen(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def _torus(matrix):\n    return matrix\n\n\n"
        "def _qt_element(torus, terms):\n    return terms\n\n\n"
        "def ambient_torus(tri):\n    return _torus(tri)\n\n\n"
        "class NormalCurve:\n    @classmethod\n    def from_dict(cls, data):\n        return qtorus._torus(data)\n\n\n"
        "def quantum_trace(tri, curve):\n    return _qt_element(ambient_torus(tri), {})\n\n\n"
        "_EMPTY = _qt_element(None, {})\n"
    )
    assert callers([source], "_torus") == {"ambient_torus", "NormalCurve.from_dict"}
    assert callers([source], "_qt_element") == {"quantum_trace", "_EMPTY"}


def dense_matrix_readers(paths):
    """The units of `paths` outside `QuantumTorus` that read an attribute `matrix`
    without calling it: a torus's dense view, not a method such as `GroupoidRep.matrix(name)`."""
    out = set()
    for path in paths:
        for st in ast.parse(path.read_text(), str(path)).body:
            for label, node in _units(st):
                nodes = list(ast.walk(node))
                called = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
                reads = [n for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
                if label.split(".")[0] != "QuantumTorus" and any(
                    n.attr == "matrix" and id(n) not in called for n in reads
                ):
                    out.add(label)
    return out


def test_no_function_reads_a_dense_torus_matrix():
    # a torus is its nonzero entries below the diagonal; the dense view is for callers and tests
    assert dense_matrix_readers(sorted(PACKAGE.glob("*.py"))) == set()


def test_a_dense_matrix_reader_is_seen(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "class QuantumTorus:\n    def __eq__(self, other):\n        return self.matrix == other.matrix\n\n\n"
        "def qt_multiply(x, y):\n    return x.torus.matrix\n\n\n"
        "def trace_arc(rep, path):\n    return rep.matrix(path[0])\n\n\n"
        "class Triangulation:\n    def blocks(self, torus):\n        return torus.matrix[0]\n\n\n"
        "_ROWS = TRIANGLE.matrix\n"
    )
    assert dense_matrix_readers([source]) == {"qt_multiply", "Triangulation.blocks", "_ROWS"}


_MUTATORS = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__", "__ior__"}


def _written(target):
    """The nodes a target of an assignment or `del` writes: a tuple or list target is each of its items."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [node for item in target.elts for node in _written(item)]
    return _written(target.value) if isinstance(target, ast.Starred) else [target]


def _is_laurent_dict(node):
    """Whether `node` is `<expr>._c` or an item of one, `<expr>._c[...]`."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "_c"


def laurent_dict_writers(paths):
    """The "module.unit" of every unit of `paths` that assigns or deletes `._c` or an item
    of it, or calls a mutator on it; a module-level statement that binds no name is `<module>`."""
    out = set()
    for path in paths:
        for st in ast.parse(path.read_text(), str(path)).body:
            for label, node in _units(st) or [("<module>", st)]:
                for n in ast.walk(node):
                    if isinstance(n, (ast.Assign, ast.Delete)):
                        targets = n.targets
                    elif isinstance(n, (ast.AugAssign, ast.AnnAssign)):
                        targets = [n.target]
                    elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in _MUTATORS:
                        targets = [n.func.value]
                    else:
                        continue
                    if any(map(_is_laurent_dict, (w for t in targets for w in _written(t)))):
                        out.add("%s.%s" % (path.stem, label))
    return out


def test_only_the_scalar_kernel_writes_a_laurent_dict():
    # a HalfLaurent result may be one of its operands, so no value may change once made:
    # only its own methods and the dense builder fill the dict of a new one
    writers = laurent_dict_writers(sorted(PACKAGE.glob("*.py")))
    assert {w for w in writers if not w.startswith("ring.HalfLaurent.")} == {"ring.from_dense"}


def test_a_laurent_dict_write_is_seen(tmp_path):
    source = tmp_path / "ring.py"
    source.write_text(
        "class HalfLaurent:\n    def __neg__(self):\n        out = HalfLaurent()\n        out._c = {}\n        return out\n\n\n"
        "def from_dense(cs):\n    out = HalfLaurent()\n    out._c = dict(cs)\n    return out\n\n\n"
        "def scale(x, k):\n    x._c[0] *= k\n\n\n"
        "def clear(x):\n    x._c.clear()\n\n\n"
        "def drop(x):\n    del x._c[0]\n\n\n"
        "def swap(x, y):\n    x._c, [y._c] = y._c, [x._c]\n\n\n"
        "def read(x, table):\n    table[x._c.get(0)] = dict(x._c)\n    return x._c\n\n\n"
        "ONE = HalfLaurent()\nONE._c.update({0: 1})\n"
    )
    assert laurent_dict_writers([source]) == {
        "ring.HalfLaurent.__neg__",
        "ring.from_dense",
        "ring.scale",
        "ring.clear",
        "ring.drop",
        "ring.swap",
        "ring.<module>",
    }


def _is_none_test(node):
    return isinstance(node, ast.Compare) and any(
        isinstance(op, (ast.Is, ast.IsNot)) and isinstance(right, ast.Constant) and right.value is None
        for op, right in zip(node.ops, node.comparators)
    )


def _is_hasattr_test(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "hasattr"


def _assigned(body):
    """The nodes that the assignments anywhere in `body`, a list of statements, write."""
    return [
        w
        for st in body
        for n in ast.walk(st)
        if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (n.targets if isinstance(n, ast.Assign) else [n.target])
        for w in _written(target)
    ]


def kept_values(paths):
    """The ("module.unit", name) of every value that a unit of `paths` keeps across calls
    outside `lru_cache`: a `global` name assigned under an `is None` test, or a `self`
    attribute assigned under a `hasattr` test."""
    out = set()
    for path in paths:
        for st in ast.parse(path.read_text(), str(path)).body:
            for label, node in _units(st):
                label = "%s.%s" % (path.stem, label)
                declared = {name for n in ast.walk(node) if isinstance(n, ast.Global) for name in n.names}
                for test in (n for n in ast.walk(node) if isinstance(n, ast.If)):
                    conditions, written = list(ast.walk(test.test)), _assigned(test.body)
                    if any(map(_is_none_test, conditions)):
                        out |= {(label, w.id) for w in written if isinstance(w, ast.Name) and w.id in declared}
                    if any(map(_is_hasattr_test, conditions)):
                        out |= {
                            (label, w.attr)
                            for w in written
                            if isinstance(w, ast.Attribute) and isinstance(w.value, ast.Name) and w.value.id == "self"
                        }
    return out


# each measured against its recomputation: `main`'s parser saves argparse's build on every
# reply after the first, and a Temperley-Lieb element's fraction-free form is read by every
# product it enters, most of all by Jones-Wenzl's; nothing else, and no triangulation fact, is kept
KEPT_VALUES = {("cli.main", "_parser"), ("tangle.TLElement._fraction_free", "_common")}


def test_the_values_kept_across_calls_are_the_two_measured_ones():
    assert kept_values(sorted(PACKAGE.glob("*.py"))) == KEPT_VALUES


def test_a_value_kept_across_calls_is_seen(tmp_path):
    source = tmp_path / "qtorus.py"
    source.write_text(
        "_TABLE = None\n_COUNT = 0\n\n\n"
        "def table():\n    global _TABLE\n    if _TABLE is None:\n        _TABLE = {}\n    return _TABLE\n\n\n"
        "def count(x=None):\n    global _COUNT\n    _COUNT += 1\n    if x is None:\n        x = 0\n    return x\n\n\n"
        "class Triangulation:\n"
        "    def __init__(self, gluings=None):\n"
        "        if gluings is None:\n            gluings = []\n        self.gluings = gluings\n\n"
        "    @property\n    def edges(self):\n"
        "        if not hasattr(self, '_edges'):\n            self._edges, other = list(self.gluings), 0\n"
        "        return self._edges\n\n"
        "    def edge_index(self, side):\n"
        "        if hasattr(side, 'index'):\n            side.cached = 1\n            edges = self.edges\n"
        "        return edges.index(side)\n"
    )
    assert kept_values([source]) == {("qtorus.table", "_TABLE"), ("qtorus.Triangulation.edges", "_edges")}
