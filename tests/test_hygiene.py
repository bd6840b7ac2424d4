import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mixnorm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# every file whose attribute reads count as uses of a field
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_unused_import_scan_flags_unread_names():
    source = "import os\nfrom typing import Iterable, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["Iterable (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def local_imports(source: str) -> list[str]:
    """Imports inside functions of a standard-library module or of any sibling
    module: siblings import at top level, so a cycle between them fails at import."""
    tree = ast.parse(source)
    found = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in sys.stdlib_module_names:
                        found[(node.lineno, alias.name)] = None
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module.split(".")[0] in sys.stdlib_module_names:
                    found[(node.lineno, "." * node.level + (node.module or ""))] = None
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_local_import_scan_flags_stdlib_and_top_level_siblings():
    source = (
        "import math\n"
        "from .grid import Box\n"
        "def f():\n"
        "    import csv as _csv\n"
        "    from .grid import crop\n"
        "    from .sobolev import norm\n"
        "    from . import fourier\n"
        "    import numpy\n"
        "    def g():\n"
        "        from itertools import product\n"
        "        return product\n"
        "    return _csv, crop, norm, fourier, numpy, g\n"
    )
    assert local_imports(source) == ["csv (line 4)", ".grid (line 5)", ".sobolev (line 6)", ". (line 7)",
                                     "itertools (line 10)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_at_top_level(path):
    assert local_imports(path.read_text()) == []


def attribute_reads(sources: list[str]) -> set[str]:
    """Attribute names that the sources read (x.name in a load context)."""
    return {node.attr for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(source: str, reads: set[str]) -> list[str]:
    """Annotated class fields of the module whose names are not in reads."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node.target.id not in reads:
                found.append(f"{cls.name}.{node.target.id} (line {node.lineno})")
    return found


def test_unread_field_scan_flags_fields_no_file_reads():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: str = ''\n"
        "    LIMIT = 3\n"
        "def f(a):\n"
        "    a.z = 'w'\n"
        "    return a.x\n"
    )
    reads = attribute_reads([source, "print(obj.y.real)\n"])
    assert unread_fields(source, reads) == ["A.z (line 6)"]


@pytest.fixture(scope="module")
def repository_reads() -> set[str]:
    return attribute_reads([p.read_text() for p in READERS])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_class_field_is_read(path, repository_reads):
    assert unread_fields(path.read_text(), repository_reads) == []


COMPLEX_TRANSFORMS = {"fft", "ifft", "fftn", "ifftn"}


def calls_of(names: set[str], source: str) -> list[str]:
    """Calls of any of the names, as an attribute or a bare name."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else fn.id if isinstance(fn, ast.Name) else None
            if name in names:
                found[(node.lineno, node.col_offset)] = f"{name} (line {node.lineno})"
    return [found[at] for at in sorted(found)]


def test_complex_transform_scan_flags_complex_calls_only():
    source = (
        "import numpy as np\n"
        "from numpy.fft import ifftn\n"
        "a = np.fft.rfftn(x)\n"
        "b = np.fft.fftn(x, norm='ortho')\n"
        "c = np.fft.irfftn(a, s=x.shape)\n"
        "d = ifftn(b).real\n"
        "e = np.fft.fftfreq(8)\n"
        "f = numpy.fft.ifft(np.fft.fft(x))\n"
    )
    assert calls_of(COMPLEX_TRANSFORMS, source) == ["fftn (line 4)", "ifftn (line 6)", "ifft (line 8)", "fft (line 8)"]


@pytest.mark.parametrize("name", ["fourier.py", "sobolev.py"])
def test_spectral_modules_take_real_transforms_only(name):
    # the field is real, so one real-transform path serves every block and derivative
    assert calls_of(COMPLEX_TRANSFORMS, (SRC / name).read_text()) == []


PER_LEVEL_LOOPS = {"ix_", "ndindex"}


def test_per_level_loop_scan_flags_index_grids_only():
    source = (
        "import numpy as np\n"
        "from numpy import ndindex\n"
        "for k in np.ndindex(3, 4):\n"
        "    t[np.ix_(a, b)] = 0\n"
        "k = np.indices((2, 3))\n"
        "w = [ndindex(2) for _ in np.nditer(x)]\n"
    )
    assert calls_of(PER_LEVEL_LOOPS, source) == ["ndindex (line 3)", "ix_ (line 4)", "ndindex (line 6)"]


def test_difference_norm_reduces_levels_without_a_per_level_loop():
    # besov_norm_diff reads every level off its step table by one cumulative max
    # per axis, taken at each level's prefix end; a gather per level vector must
    # not come back
    assert calls_of(PER_LEVEL_LOOPS, (SRC / "differences.py").read_text()) == []


POWERED_SUM_MARKS = ("** (1.0 / p)", "errstate(over", "except OverflowError")


def powered_sum_sites(source: str) -> list[str]:
    """Lines that take the p-th root of a powered sum or handle a float overflow."""
    return [f"{mark} (line {n})" for n, line in enumerate(source.splitlines(), 1)
            for mark in POWERED_SUM_MARKS if mark in line]


def test_powered_sum_scan_flags_roots_and_overflow_handlers():
    source = (
        "norm = total ** (1.0 / p)\n"
        "with np.errstate(over='ignore', invalid='ignore'):\n"
        "    q = 2.0 ** (1.0 / 3)\n"
        "try:\n"
        "    w = 2.0 ** k\n"
        "except OverflowError:\n"
        "    pass\n"
        "with np.errstate(divide='ignore'):\n"
        "    r = total ** (1.0 / q)\n"
    )
    assert powered_sum_sites(source) == ["** (1.0 / p) (line 1)", "errstate(over (line 2)",
                                         "except OverflowError (line 6)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"], ids=lambda p: p.name)
def test_powered_sums_stay_in_grid(path):
    # tables and aggregates carry L_p norms: only grid forms a p-th power sum,
    # takes its root or handles its overflow
    assert powered_sum_sites(path.read_text()) == []


def loose_caches(source: str) -> list[str]:
    """Caches that are not functools.lru_cache with an explicit integer maxsize:
    functools.cache, lru_cache bare or with maxsize=None, or either imported by name."""
    tree = ast.parse(source)
    sized = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            size = [k.value for k in node.keywords if k.arg == "maxsize"] or node.args[:1]
            if size and isinstance(size[0], ast.Constant) and type(size[0].value) is int:
                sized.add(id(node.func))
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in ("cache", "lru_cache"):
                    found[(node.lineno, node.col_offset)] = f"{alias.name} (line {node.lineno})"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            if node.attr == "cache" or (node.attr == "lru_cache" and id(node) not in sized):
                found[(node.lineno, node.col_offset)] = f"functools.{node.attr} (line {node.lineno})"
    return [found[at] for at in sorted(found)]


def test_loose_cache_scan_flags_unbounded_and_unsized_caches():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def a(x): return x\n"
        "@functools.lru_cache(16)\n"
        "def b(x): return x\n"
        "@functools.lru_cache\n"
        "def c(x): return x\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def d(x): return x\n"
        "@functools.cache\n"
        "def e(x): return x\n"
        "f = functools.lru_cache(maxsize=True)(len)\n"
        "g = functools.reduce(max, [1], 0)\n"
    )
    assert loose_caches(source) == ["lru_cache (line 2)", "functools.lru_cache (line 7)",
                                    "functools.lru_cache (line 9)", "functools.cache (line 11)",
                                    "functools.lru_cache (line 13)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_has_an_integer_bound(path):
    # a cache without a bound grows with every grid, field or order a run meets
    assert loose_caches(path.read_text()) == []


def memo_writers(source: str) -> list[str]:
    """Calls of object.__setattr__, which writes past an immutable class's guard,
    and any use of a field memo (an attribute named _memo)."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_memo":
            found[(node.lineno, node.col_offset)] = f"_memo (line {node.lineno})"
        elif (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
              and isinstance(node.value, ast.Name) and node.value.id == "object"):
            found[(node.lineno, node.col_offset)] = f"object.__setattr__ (line {node.lineno})"
    return [found[at] for at in sorted(found)]


def test_memo_writer_scan_flags_setattr_and_memo_uses():
    source = (
        "object.__setattr__(u, 'values', v)\n"
        "u._memo[key] = table\n"
        "super().__setattr__('x', 1)\n"
        "t = u._memo.get(key)\n"
        "setattr(u, '_memo', {})\n"
        "f = object.__setattr__\n"
    )
    assert memo_writers(source) == ["object.__setattr__ (line 1)", "_memo (line 2)", "_memo (line 4)",
                                    "object.__setattr__ (line 6)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"], ids=lambda p: p.name)
def test_only_grid_writes_past_immutability(path):
    # grid.GridFunction's memo has one writer, grid._memoized, which makes what it keeps
    # read-only; no other module sets attributes of a frozen object or reaches the memo
    assert memo_writers(path.read_text()) == []


def fft_out_calls(source: str) -> list[str]:
    """np.fft calls given an out= argument, which numpy.fft takes since NumPy 2.0."""
    return [f"{ast.unparse(node.func)} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and ast.unparse(node.func.value) in ("np.fft", "numpy.fft") and any(k.arg == "out" for k in node.keywords)]


def test_fft_out_scan_flags_only_out_arguments():
    source = "np.fft.ifft(c, axis=0, out=c)\nnp.fft.rfftn(v, s)\nnp.add(a, b, out=a)\nnumpy.fft.fft(c, out=b)\n"
    assert fft_out_calls(source) == ["np.fft.ifft (line 1)", "numpy.fft.fft (line 4)"]


def test_declared_numpy_floor_takes_every_fft_out_argument():
    uses = [call for path in MODULES for call in fft_out_calls(path.read_text())]
    floor = re.search(r'"numpy>=(\d+)', (ROOT / "pyproject.toml").read_text())
    assert not uses or int(floor.group(1)) >= 2, uses


def dead_functions(sources: dict[str, str]) -> list[str]:
    """Top-level functions of the modules (file name -> source) that nothing names outside their
    own body: no call, reference or import in any of the sources, __init__.py's imports (the
    package's exports) included."""
    trees = {name: ast.parse(source) for name, source in sources.items()}

    def names(tree) -> list[str]:
        return [node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                else node.name for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]

    uses: dict[str, int] = {}
    for tree in trees.values():
        for name in names(tree):
            uses[name] = uses.get(name, 0) + 1
    found = []
    for module, tree in sorted(trees.items()):
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and uses.get(fn.name, 0) == names(fn).count(fn.name):
                found.append(f"{module}: {fn.name} (line {fn.lineno})")
    return found


def test_dead_function_scan_flags_functions_named_only_by_themselves():
    sources = {
        "a.py": ("def used(): return 1\n"
                 "def dead(n): return dead(n - 1) if n else 0\n"
                 "def _helper(): return 2\n"
                 "x = _helper\n"
                 "class C:\n"
                 "    def method(self): return 0\n"
                 "def unread(): return C().method()\n"),
        "b.py": "from .a import used\nimport a\ndef main(): return used() + a.unread\ndef orphan(): return 0\n",
        "__init__.py": "from .b import main\n",
    }
    assert dead_functions(sources) == ["a.py: dead (line 2)", "b.py: orphan (line 4)"]


def test_every_function_is_used_or_exported():
    assert dead_functions({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


MIXNORM_ERRORS = {"GridError", "GridMismatchError", "NumericalAnomalyError", "ValidationError"}
# Python's attribute protocol: assigning or deleting an attribute that cannot be set raises
# AttributeError, so a frozen class's guards keep it
ATTRIBUTE_GUARDS = {"__setattr__", "__delattr__"}


def foreign_raises(source: str) -> list[str]:
    """raise statements that re-raise bare or name a class other than mixnorm's errors
    (an AttributeError in an attribute guard excepted)."""
    found = {}

    def visit(node, guard: bool) -> None:
        if isinstance(node, ast.FunctionDef):
            guard = node.name in ATTRIBUTE_GUARDS
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = None if exc is None else exc.attr if isinstance(exc, ast.Attribute) else ast.unparse(exc)
            if name not in MIXNORM_ERRORS and not (guard and name == "AttributeError"):
                found[(node.lineno, node.col_offset)] = f"{name or 'bare raise'} (line {node.lineno})"
        for child in ast.iter_child_nodes(node):
            visit(child, guard)

    visit(ast.parse(source), False)
    return [found[at] for at in sorted(found)]


def test_foreign_raise_scan_flags_other_classes_and_bare_raises():
    source = (
        "from . import grid\n"
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(f'negative {x}')\n"
        "    if x > 9:\n"
        "        raise grid.GridError('large')\n"
        "    try:\n"
        "        return 1 / x\n"
        "    except ZeroDivisionError as err:\n"
        "        raise NumericalAnomalyError(str(err)) from None\n"
        "    except OverflowError:\n"
        "        raise\n"
        "class Frozen:\n"
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError('frozen')\n"
        "    def set(self):\n"
        "        raise AttributeError('not a guard')\n"
        "def g(err):\n"
        "    raise err\n"
    )
    assert foreign_raises(source) == ["ValueError (line 4)", "bare raise (line 12)",
                                      "AttributeError (line 17)", "err (line 19)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_raise_only_mixnorm_errors(path):
    # the CLI maps each mixnorm error to an exit code; any other class leaves it as a traceback
    assert foreign_raises(path.read_text()) == []


DIRECTION_SET_IDIOM = "sorted(set(int("


def direction_set_sites(source: str) -> list[str]:
    """Lines holding the direction-set idiom sorted(set(int(...))), each named by the innermost
    function around it (<module> at top level)."""
    tree = ast.parse(source)
    spans = sorted(((fn.lineno, fn.end_lineno, fn.name) for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))), key=lambda s: s[1] - s[0])
    return [f"{next((name for lo, hi, name in spans if lo <= n <= hi), '<module>')} (line {n})"
            for n, line in enumerate(source.splitlines(), 1) if DIRECTION_SET_IDIOM in line.replace(" ", "")]


def test_direction_set_scan_names_the_enclosing_function():
    source = (
        "AXES = sorted(set(int(a) for a in (1, 0)))\n"
        "def _direction_set(e, d):\n"
        "    return tuple(sorted(set(int(a) for a in e)))\n"
        "def modulus(u, e):\n"
        "    def inner(e):\n"
        "        return sorted( set( int(x) for x in e))\n"
        "    return sorted(set(e)), inner(e)\n"
    )
    assert direction_set_sites(source) == ["<module> (line 1)", "_direction_set (line 3)", "inner (line 6)"]


def test_direction_sets_are_normalized_in_one_place():
    # differences._direction_set sorts, dedups and range-checks every direction set or axis an
    # entry point takes; an inline copy would skip the range check
    sites = [f"{path.name}: {site}" for path in MODULES for site in direction_set_sites(path.read_text())]
    assert [site.split(" (line")[0] for site in sites] == ["differences.py: _direction_set"], sites


def test_each_characterization_aggregates_its_levels_at_one_site():
    # grid._dyadic_aggregates is the one dyadic aggregate, called once by the driver of both
    # difference Besov forms and once by fourier._fourier_besov, which the p = 2 Sobolev norm shares
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    sites = {name: calls_of({"_dyadic_aggregates", "_dyadic_aggregate"}, source) for name, source in sources.items()}
    calls = {name: [site.split(" (line")[0] for site in found] for name, found in sites.items() if found}
    assert calls == {"differences.py": ["_dyadic_aggregates"], "fourier.py": ["_dyadic_aggregates"]}, sites
    assert [name for name, source in sources.items() if re.search(r"\b_dyadic_aggregate\b", source)] == []
