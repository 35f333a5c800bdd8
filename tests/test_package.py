import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import dualgas
from dualgas import work
from dualgas.core import LinearRamp

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(dualgas.__path__) if info.name != "__main__"
)
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition goes breaks star imports
    # and the span recorders that wrap every public function
    mod = importlib.import_module(f"dualgas.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def _package_imports():
    """(file, line, module) of every absolute import in the package, with
    `from numpy import random` read as numpy.random and an attribute
    np.random (numpy loads it on first access) as an import of it."""
    for path in sorted(Path(dualgas.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy")):
                names = [f"numpy.{node.attr}"]
            else:
                continue
            yield from ((path.name, node.lineno, n) for n in names)


def test_package_imports_no_scipy():
    # scipy is a test dependency only: an import at any depth, even inside
    # a function no command calls, would make it a runtime one again
    found = [imp for imp in _package_imports() if imp[2].split(".")[0] == "scipy"]
    assert found == []


def test_package_imports_no_numpy_random():
    # numpy.random adds about 6 MiB to every process that loads it, and the
    # Krylov start block is a fixed table, the same on every run
    found = [imp for imp in _package_imports()
             if imp[2] == "numpy.random" or imp[2].startswith("numpy.random.")]
    assert found == []


def _module_imports_unused(path: Path) -> list:
    """Module-level imported names that the module neither uses nor lists
    in __all__ (from __future__ binds nothing)."""
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [(path.name, node.lineno, b) for b in bound if b not in used]
    return unused


def test_package_modules_import_nothing_unused():
    # an import nothing uses costs start-up time and misstates what the
    # module needs; __init__ imports only to re-export
    pkg = Path(dualgas.__file__).resolve().parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name != "__init__.py":
            found += _module_imports_unused(path)
    assert found == []


@pytest.fixture(scope="module")
def tracer():
    # the benchmark's span recorder, loaded as it stands and left unwritten
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return mod


def test_tracer_counters_name_exported_functions(tracer):
    # a counter on a name the recorder does not wrap never runs, and one on
    # a name that is gone fails every op of the benchmark
    for name in tracer._INFO:
        short, attr = name.split(".")
        mod = importlib.import_module(f"dualgas.{short}")
        assert attr in mod.__all__, name
        fn = getattr(mod, attr)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name


def test_tracer_counters_read_work_results(tracer):
    args = (LinearRamp(1.0, 5.0, 0.05), 1.0, 3)
    ramp = work.propagate_ramp(*args)
    assert tracer._INFO["work.propagate_ramp"](args, {}, ramp) == ramp.n_rhs_evals > 0
    p = np.array([0.25, 0.25, 0.5])
    args = (np.array([0.0, 1e-12, 1.0]), p, np.log(p))
    merged = work.merge_atoms(*args)
    assert tracer._INFO["work.merge_atoms"](args, {}, merged) == [3, 2]
