"""Every name a package module imports is used in that module, and every
parameter a package function takes is read in its body. Frozen dataclasses
set fields with object.__setattr__ only in __post_init__, where they
normalise their own fields: every other field is an init argument.

__init__.py is left out of the import check: its imports are the package's
exports, and __all__ must list exactly those. Every export, and every public
method, property and dataclass field of an exported class, has a caller in
a package module, a demo or the benchmark harness, apart from the names
EXPORTS_WITHOUT_CALLER and ATTRIBUTES_WITHOUT_CALLER keep on purpose: no
name is exported or kept for the tests alone. Output rendering lives in
cli.py alone: no other module imports json, and no export renders TSV or
JSON.

Importing the package and its CLI loads no module beyond what numpy,
argparse, json and dataclasses load already: the network stack behind
fetch_sequence loads only on a cache miss.
"""

import ast
import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import palinscan

from conftest import child_env

PACKAGE = Path(__file__).parent.parent / "src" / "palinscan"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that no other part of
    the module reads (an attribute chain counts through its root name)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                         and node.module == "__future__"):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_name():
    source = "import os\nfrom math import pi, tau\nimport numpy as np\nprint(pi, np.e)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 2)"]


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(palinscan.__all__) == sorted(imported)


def loaded_names(source: str) -> set[str]:
    """Names the source loads, bare or as an attribute, outside the body of
    the function or class of that name."""
    found = set()

    def visit(node, inside: frozenset) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, inside | {child.name})
                continue
            if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load):
                name = child.id if isinstance(child, ast.Name) else child.attr
                if name not in inside:
                    found.add(name)
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def unused_exports(exports, sources) -> list[str]:
    """The exports that none of the sources loads (loaded_names)."""
    used = set().union(*map(loaded_names, sources))
    return sorted(set(exports) - used)


def public_attributes(cls) -> set[str]:
    """The public methods, properties and dataclass fields that cls itself
    defines."""
    names = set(vars(cls))
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return {name for name in names if not name.startswith("_")}


def unused_attributes(classes, sources) -> list[str]:
    """"Class.name" for each public attribute of the classes that none of
    the sources loads (loaded_names).

    Its blind spot: it matches names only, not the class they are read
    from. RateEstimate.half_length, which only tests read, would have
    passed, because other code reads the half_length of other classes.
    """
    used = set().union(*map(loaded_names, sources))
    return sorted(f"{cls.__name__}.{name}" for cls in classes
                  for name in public_attributes(cls) - used)


# Exports that no package module, demo or benchmark loads, each kept on purpose
EXPORTS_WITHOUT_CALLER = set()

# Attributes of exported classes that no package module, demo or benchmark
# loads, each kept on purpose
ATTRIBUTES_WITHOUT_CALLER = {
    # the per-replicate maxima behind powers: the tests check powers against
    # them, and a caller needs them to apply thresholds of its own
    "PowerExperimentResult.segment_maxima",
}


def test_every_export_has_a_caller():
    root = PACKAGE.parent.parent
    callers = SOURCES + sorted((root / "demos").glob("*.py")) + sorted(
        (root / "perfbench").glob("*.py"))
    sources = [p.read_text() for p in callers]
    assert set(unused_exports(palinscan.__all__, sources)) == EXPORTS_WITHOUT_CALLER
    classes = [obj for obj in map(palinscan.__dict__.get, palinscan.__all__)
               if inspect.isclass(obj)]
    assert set(unused_attributes(classes, sources)) == ATTRIBUTES_WITHOUT_CALLER


def test_export_checker_flags_an_unused_name():
    sources = ["def f(n):\n    return f(n - 1)\n\nclass C:\n    pass\n",
               "import m\nm.g(C())\n"]
    assert unused_exports(["C", "f", "g", "h"], sources) == ["f", "h"]


def test_attribute_checker_flags_an_unused_attribute():
    @dataclasses.dataclass
    class Point:
        x: float
        y: float = 0.0
        _cache: int = 0

        @property
        def norm(self) -> float:
            return abs(self.x)

        def moved(self, dx: float) -> "Point":
            return Point(self.x + dx, self.y)

    sources = ["def moved(p):\n    return moved(p).norm\n", "print(p.x)\n"]
    assert unused_attributes([Point], sources) == ["Point.moved", "Point.y"]


def setattr_outside_post_init(source: str) -> list[int]:
    """Lines that name object.__setattr__ outside a __post_init__ method (a
    function nested in one counts as outside)."""
    lines = []

    def visit(node, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name == "__post_init__")
                continue
            if (not inside and isinstance(child, ast.Attribute)
                    and child.attr == "__setattr__" and isinstance(child.value, ast.Name)
                    and child.value.id == "object"):
                lines.append(child.lineno)
            visit(child, inside)

    visit(ast.parse(source), False)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_setattr_only_in_post_init(path):
    assert setattr_outside_post_init(path.read_text()) == []


def test_setattr_checker_flags_a_field_set_elsewhere():
    source = ("class A:\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'x', 1)\n"
              "        def later():\n"
              "            object.__setattr__(self, 'y', 2)\n"
              "def make(a):\n"
              "    set_field = object.__setattr__\n"
              "    set_field(a, 'x', 1)\n")
    assert setattr_outside_post_init(source) == [5, 7]


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules the source imports (relative imports
    by the module they name, e.g. "markov" for "from .markov import x")."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_only_cli_imports_json():
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if "json" in imported_modules(p.read_text())]
    assert importers == ["cli.py"]


def test_no_exported_renderers():
    assert [n for n in palinscan.__all__ if n.endswith(("_tsv", "_json"))] == []


# Parameters still accepted for callers that pass them, and ignored: the
# threshold and the p-value are deterministic. Their last callers are the
# benchmark's, perfbench/worker.py lines 95 (nu_entropy) and 174 (rng);
# once those stop passing them, both go and this set is empty.
UNREAD_ALLOWED = {"scan.p_value.rng", "scan.threshold_for_alpha.nu_entropy"}


def unread_parameters(source: str, module: str = "m") -> list[str]:
    """"module.function.parameter" for each parameter of each function or
    method in the source that its body never reads (a nested function's
    reads count for the function that holds it)."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if a is not None]
        read = set()
        for stmt in node.body:
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    read.add(n.id)
                elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
                    read.add(n.target.id)
        unread += [f"{module}.{node.name}.{p}" for p in params if p not in read]
    return unread


def test_no_unread_parameters():
    unread = {name for path in SOURCES
              for name in unread_parameters(path.read_text(), path.stem)}
    assert unread == UNREAD_ALLOWED


def test_unread_checker_flags_an_ignored_parameter():
    source = ("def f(a, b, *rest, c=1, **kw):\n"
              "    b += 1\n"
              "    def g():\n"
              "        return kw\n"
              "    return g\n")
    assert unread_parameters(source) == ["m.f.a", "m.f.c", "m.f.rest"]


# Modules every palinscan process loads anyway, before palinscan itself
PRELOADED = "import __future__, argparse, dataclasses, json, numpy"


def modules_loaded_by(code: str) -> list[str]:
    """Modules outside palinscan.* that a fresh interpreter, importing the
    palinscan this process imported, loads to run code after PRELOADED."""
    script = (f"import sys\n{PRELOADED}\nbefore = set(sys.modules)\n{code}\n"
              "print(*sorted(set(sys.modules) - before), sep='\\n')")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return [m for m in proc.stdout.split()
            if m != "palinscan" and not m.startswith("palinscan.")]


def test_import_adds_no_modules():
    added = modules_loaded_by("import palinscan, palinscan.cli")
    assert not added, f"{len(added)} modules added: {', '.join(added)}"


def test_network_modules_load_only_on_a_cache_miss(tmp_path):
    (tmp_path / "ACC1.fasta").write_bytes(b">ACC1\nGAATTC\n")
    fetch = ("from palinscan import FetchError, fetch_sequence\n"
             f"cache = {str(tmp_path)!r}\n"
             "assert str(fetch_sequence('ACC1', cache_dir=cache).seq) == 'GAATTC'\n")
    warm = modules_loaded_by(fetch)
    assert "urllib.request" not in warm and "ssl" not in warm
    # a miss, refused by a closed local port, loads them: the check can see them
    miss = modules_loaded_by(fetch + "try:\n    fetch_sequence('ACC2', endpoint="
                             "'http://127.0.0.1:9/fasta', cache_dir=cache, timeout=0.5)\n"
                             "except FetchError:\n    pass\n")
    assert "urllib.request" in miss and "ssl" in miss
