"""Source hygiene: every module compiles without a warning, imports at its
top and uses every name it imports, keeps no memo across calls, runs in
one process that no environment variable configures, catches no error it
does not name, defines no function or class that nothing names, keeps
one linear-form algebra and one integer form, raises each resource
limit only where it is enforced, answers every polyhedral query through
one function, keeps the LP row record in `farkas`, and draws the
simulator's uniforms from raw words."""

import ast
import pathlib
import warnings

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "probterm"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    # an invalid escape such as "\ " warns at compile time, and the warning
    # grows stricter with each Python release
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # __init__.py imports names to re-export them
    assert _unused_imports(ast.parse(path.read_text())) == []


# calls that import or load a module: the builtin, importlib's and
# importlib.util's
IMPORT_CALLS = {"__import__", "import_module", "reload", "find_spec", "module_from_spec",
                "spec_from_loader", "spec_from_file_location", "LazyLoader", "exec_module"}


def _late_imports(tree: ast.Module) -> list:
    """Lines of the imports outside the module's leading block of imports
    (after its docstring): those further down and those inside a
    function or class; and of the calls in `IMPORT_CALLS` inside a
    function."""
    body = tree.body
    head = 0 if ast.get_docstring(tree) is None else 1
    while head < len(body) and isinstance(body[head], (ast.Import, ast.ImportFrom)):
        head += 1
    top = {id(node) for node in body[:head]}
    found = {node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found |= {node.lineno for node in ast.walk(func) if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      in IMPORT_CALLS}
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_module_top(path):
    # every dependency of a module shows in its header; an import hidden in
    # a function is resolved on each call and hides import cycles
    assert _late_imports(ast.parse(path.read_text())) == []


def test_late_import_is_detected():
    tree = ast.parse('"""doc."""\nimport os\nfrom . import a\nX = 1\nimport sys\n'
                     "def f():\n    from .b import c\n    return c\n")
    assert _late_imports(tree) == [5, 7]


def test_late_import_call_is_detected():
    tree = ast.parse("import importlib\nimport importlib.util\nimport sys\n"
                     "spec = importlib.util.find_spec('json')\n"
                     "def f():\n    return importlib.import_module('json')\n"
                     "def g():\n    return __import__('json')\n"
                     "def h(spec):\n"
                     "    spec.loader = importlib.util.LazyLoader(spec.loader)\n"
                     "    m = importlib.util.module_from_spec(spec)\n"
                     "    spec.loader.exec_module(m)\n"
                     "    return m\n"
                     "k = lambda: importlib.reload(sys)\n"
                     "def quiet():\n    return sys.modules.get('json')\n")
    assert _late_imports(tree) == [6, 8, 10, 11, 12, 14]


CACHES = {"cache", "lru_cache"}


def _process_caches(tree: ast.Module) -> list:
    """Lines that import or use functools.cache or functools.lru_cache."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_functools_cache(path):
    # memo state lives in the call that owns it (a synthesis run's encoded
    # side conditions, a scheduler's pre-expectations), never for the whole
    # process
    assert _process_caches(ast.parse(path.read_text())) == []


def test_functools_cache_is_detected():
    tree = ast.parse("import functools\nfrom functools import lru_cache\n"
                     "@functools.cache\ndef f(): pass\n")
    assert _process_caches(tree) == [2, 3]


CONCURRENCY = {"concurrent", "multiprocessing", "threading"}
ENVIRONMENT = {"environ", "getenv"}


def _process_knobs(tree: ast.Module) -> list:
    """Lines that import a concurrency module or read the environment."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names
                      if alias.name.split(".")[0] in CONCURRENCY]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            root = node.module.split(".")[0]
            if root in CONCURRENCY or (root == "os" and any(
                    alias.name in ENVIRONMENT for alias in node.names)):
                found.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_single_process(path):
    # probterm is a single-process prover: every estimate is made in the
    # calling process, and its arguments are its only configuration
    assert _process_knobs(ast.parse(path.read_text())) == []


def test_process_knobs_are_detected():
    tree = ast.parse("import concurrent.futures\nfrom multiprocessing import Pool\n"
                     "import os, threading as t\nfrom os import getenv\nimport json\n"
                     "from .threading import x\n"
                     "a = os.environ.get('A')\nb = os.getenv('B')\nc = os.path.sep\n")
    assert _process_knobs(tree) == [1, 2, 3, 4, 7, 8]


BROAD = {"Exception", "BaseException"}


def _broad_handlers(tree: ast.Module) -> list:
    """Lines of the handlers that catch every error: a bare `except:`, or
    one naming Exception or BaseException, alone or in a tuple."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            named = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            if node.type is None or any(isinstance(t, ast.Name) and t.id in BROAD
                                        for t in named):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_broad_except(path):
    # a handler names the errors it expects, so that a bug elsewhere shows
    # as a traceback, not as an input error or a verdict
    assert _broad_handlers(ast.parse(path.read_text())) == []


def test_broad_except_is_detected():
    tree = ast.parse("try:\n    pass\nexcept:\n    pass\n"
                     "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
                     "try:\n    pass\nexcept BaseException as e:\n    pass\n"
                     "try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n"
                     "try:\n    pass\nexcept OSError:\n    pass\n")
    assert _broad_handlers(tree) == [3, 7, 11]


def _definitions(tree: ast.Module) -> dict:
    """Name to line of every function, method and class, dunders excluded:
    the language calls those itself."""
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _names_used(tree: ast.Module) -> set:
    """Every name read or written, and every attribute taken."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_function_is_referenced():
    # a function or class that no source, test or bench file names is dead
    # code, a record that nothing builds or reads included
    used = set()
    for part in ("src", "tests", "bench"):
        for path in (ROOT / part).rglob("*.py"):
            used |= _names_used(ast.parse(path.read_text()))
    dead = [f"{path.name}:{line} {name}"
            for path in sorted((ROOT / "src").rglob("*.py"))
            for name, line in _definitions(ast.parse(path.read_text())).items()
            if name not in used]
    assert dead == []


def test_unreferenced_function_is_detected():
    tree = ast.parse("class C:\n    def used(self): pass\n    def dead(self): pass\n"
                     "    def __len__(self): return 0\n"
                     "class Record:\n    run: int\n"
                     "def f():\n    return C().used()\nf()\n")
    assert set(_definitions(tree)) - _names_used(tree) == {"dead", "Record"}


ARITHMETIC = {"__add__", "__sub__", "__neg__", "__mul__", "__radd__", "__rsub__", "__rmul__"}


def _arithmetic(tree: ast.Module) -> list:
    """Lines where a class body defines an arithmetic operator, by `def`
    or by assignment."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    continue
                if ARITHMETIC & set(names):
                    found.append(item.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_linear_form_algebra(path):
    # `LinExpr` is the linear-form algebra over program variables and over
    # LP columns alike; a second one would repeat it
    found = _arithmetic(ast.parse(path.read_text()))
    assert bool(found) == (path.name == "linear.py")


def test_arithmetic_operator_is_detected():
    tree = ast.parse("class A:\n    def __add__(self, o): pass\n    def scale(self, f): pass\n"
                     "    __mul__ = __rmul__ = scale\n    __radd__ = __add__\n"
                     "    def __eq__(self, o): pass\n"
                     "class B:\n    x = 1\n    def __neg__(self): pass\n"
                     "def __sub__(a, b): pass\n")
    assert _arithmetic(tree) == [2, 4, 5, 9]


# each call that turns a rational into integers -> the modules that may
# make it: `simplex.integer_row` is the one place a rational linear form
# becomes integers, and `distributions` reads a float draw exactly
INTEGER_CALLS = {"lcm": {"simplex.py"}, "as_integer_ratio": {"simplex.py", "distributions.py"}}


def _integer_calls(tree: ast.Module) -> list:
    """(name, line) of every call of a function or method named in
    `INTEGER_CALLS`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in INTEGER_CALLS:
                found.append((name, node.lineno))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_integer_form(path):
    # a second integer form would repeat `integer_row`'s scaling and
    # reduction, and could order or reduce a row differently
    found = _integer_calls(ast.parse(path.read_text()))
    assert [(name, line) for name, line in found
            if path.name not in INTEGER_CALLS[name]] == []


def test_integer_call_is_detected():
    tree = ast.parse("from math import lcm\nscale = lcm(a, b)\nn, d = x.as_integer_ratio()\n"
                     "g = math.lcm(*dens)\nk = x.denominator\nf = lcm\n")
    assert _integer_calls(tree) == [("as_integer_ratio", 3), ("lcm", 2), ("lcm", 4)]


# each resource limit -> the one module that enforces it
LIMITS = {"PivotCapReached": "simplex.py", "EncodingBlowup": "linear.py"}


def _limit_classes(tree: ast.Module) -> set:
    """Names of the classes that subclass ResourceLimit."""
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(b, ast.Name) and b.id == "ResourceLimit" for b in node.bases)}


def _raised(tree: ast.Module) -> list:
    """(line, name) of every `raise` of a named exception, called or not."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.append((node.lineno, exc.id))
            elif isinstance(exc, ast.Attribute):
                found.append((node.lineno, exc.attr))
    return sorted(found)


def test_resource_limits_are_raised_where_enforced():
    # a capped query has no answer; a caller that converted some answer
    # back into a limit would be a second place to keep that rule
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert set().union(*map(_limit_classes, trees.values())) == set(LIMITS)
    for name, tree in sorted(trees.items()):
        raised = {exc for _, exc in _raised(tree)} & set(LIMITS)
        assert raised == {limit for limit, home in LIMITS.items() if home == name}, name


def test_raised_limit_is_detected():
    tree = ast.parse("class Cap(ResourceLimit): pass\nclass Other(ValueError): pass\n"
                     "def f(r):\n    if r:\n        raise Cap('3 pivots')\n"
                     "    try:\n        g()\n    except KeyError:\n        raise\n"
                     "    raise simplex.PivotCapReached from None\n")
    assert _limit_classes(tree) == {"Cap"}
    assert _raised(tree) == [(5, "Cap"), (10, "PivotCapReached")]


CERTIFICATE_PATH = ("simplex", "farkas", "synthesis", "checker", "preexp", "linear")
EXACT_MATH = {"gcd", "lcm"}


def _floating_point(tree: ast.Module) -> list:
    """Lines with a float literal, a float(...) call, an import of numpy,
    a string naming numpy or one of its submodules (as a lazy or dynamic
    import of it must), or an import from math of anything but gcd and
    lcm."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(node.lineno)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.split(".")[0] == "numpy"):
            found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(node.lineno)
        elif isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names
                      if alias.name.split(".")[0] in ("math", "numpy")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            root = node.module.split(".")[0]
            if root == "numpy" or (root == "math" and any(
                    alias.name not in EXACT_MATH for alias in node.names)):
                found.append(node.lineno)
    return sorted(set(found))


@pytest.mark.parametrize("name", CERTIFICATE_PATH)
def test_no_floating_point_on_the_certificate_path(name):
    # certificates, Farkas witnesses and checker verdicts are exact: one
    # rounded number there would make a proof unsound
    assert _floating_point(ast.parse((SRC / f"{name}.py").read_text())) == []


def test_floating_point_is_detected():
    tree = ast.parse("import math\nfrom math import gcd, lcm\nfrom math import sqrt\n"
                     "import numpy as np\nfrom numpy.linalg import solve\n"
                     "x = 0.5\ny = float(x)\nz = 1e3\nn = 3\nfrom .math import floor\n")
    assert _floating_point(tree) == [1, 3, 4, 5, 6, 7, 8]


def test_lazy_numpy_is_detected():
    tree = ast.parse("import importlib.util\nimport sys\n"
                     "np = sys.modules.get('numpy')\n"
                     "spec = importlib.util.find_spec('numpy.linalg')\n"
                     "la = __import__('numpy')\n"
                     "doc = 'numpy-free'\nname = 'numbers'\n")
    assert _floating_point(tree) == [3, 4, 5]


QUERY_STEPS = {"_scan", "_box_point", "_gap_lp"}


def test_one_feasibility_query():
    # every polyhedral query of `farkas`, an entailment included, is
    # `check_feasible`: it alone runs the steps that settle one, so a
    # second query path cannot order or skip them differently
    tree = ast.parse((SRC / "farkas.py").read_text())
    callers = {}
    for func in tree.body:
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in QUERY_STEPS):
                    callers.setdefault(node.func.id, set()).add(func.name)
    assert callers == {step: {"check_feasible"} for step in QUERY_STEPS}


ROW_RECORD = "LPConstraint"


def _row_record_names(tree: ast.Module) -> list:
    """Lines that name the LP row record: as a name, an attribute or an
    imported name."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == ROW_RECORD
                or isinstance(node, ast.Attribute) and node.attr == ROW_RECORD
                or isinstance(node, ast.alias) and node.name == ROW_RECORD):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_row_record_stays_in_farkas(path):
    # the Farkas rows have one owner: the encoder writes them into a block,
    # and placing the block, or `LPProblem.add_row`, builds the LP's rows,
    # so no other module builds or reads the record itself
    found = _row_record_names(ast.parse(path.read_text()))
    assert bool(found) == (path.name == "farkas.py"), found


def test_row_record_name_is_detected():
    tree = ast.parse("from .farkas import LPConstraint, LPProblem\nfrom . import farkas\n"
                     "row = farkas.LPConstraint(form, rel)\nrows: List[LPConstraint] = []\n"
                     "name = 'LPConstraint'\nlp = LPProblem()\n")
    assert _row_record_names(tree) == [1, 3, 4]


# the one place a simulator draw may go through `Generator.random()`: the
# uniform scheduler's choice, whose index is computed from a float
FLOAT_DRAWS = {"UniformRandom.choose"}


def _random_calls(tree: ast.Module) -> list:
    """(enclosing class and function names joined by dots, line) of every
    call of a method named `random`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "random"):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, [])
    return found


@pytest.mark.parametrize("name", ["simulate", "distributions"])
def test_draws_read_the_raw_word(name):
    # a uniform draw reads the bit generator's raw word as an exact integer
    # ratio; `random()` would build a float from that word only for the
    # draw to read it back as a ratio
    calls = _random_calls(ast.parse((SRC / f"{name}.py").read_text()))
    assert {scope for scope, _ in calls} <= FLOAT_DRAWS, calls


def test_random_call_is_detected():
    tree = ast.parse("u = rng.random()\nclass S:\n    def choose(self, rng):\n"
                     "        return rng.random()\n"
                     "def draw(rng):\n    return lambda: rng.random() + g.random_raw()\n")
    assert _random_calls(tree) == [("", 1), ("S.choose", 4), ("draw", 6)]
