import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import dualgas
from conftest import run_python
from dualgas import cli, work
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


def _calls_by_name(paths):
    """name -> [(positional count, keyword names, passes * or **)] of every
    call in the files, by the called name or attribute; partial(f, ...)
    counts as a call of f with the rest of its arguments."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "partial" and args:
                func, args = args[0], args[1:]
                name = getattr(func, "id", getattr(func, "attr", None))
            if name is None:
                continue
            spread = (any(isinstance(a, ast.Starred) for a in args)
                      or any(kw.arg is None for kw in node.keywords))
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(name, []).append((len(args), keywords, spread))
    return calls


def _options_no_call_sets():
    """module.function(parameter) of every parameter with a default, of every
    function a module exports, that no call in the package or the tests sets."""
    root = Path(dualgas.__file__).resolve().parents[2]
    calls = _calls_by_name(sorted((root / "src").rglob("*.py"))
                           + sorted((root / "tests").glob("*.py")))
    unset = []
    for name in MODULES:
        mod = importlib.import_module(f"dualgas.{name}")
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                continue
            params = list(inspect.signature(fn).parameters.values())
            for i, param in enumerate(params):
                if param.default is inspect.Parameter.empty:
                    continue
                if not any(spread or param.name in keywords
                           or (n_args > i and param.kind != param.KEYWORD_ONLY)
                           for n_args, keywords, spread in calls.get(attr, [])):
                    unset.append(f"{name}.{attr}({param.name})")
    return unset


def test_every_exported_option_is_set_by_some_call():
    # a default no call changes is a constant that tests and benchmarks
    # never vary: it belongs in the module, not in the signature
    assert _options_no_call_sets() == []


def _members_src_never_reads():
    """module.Class.member of every public method or property of every class
    a module exports that no attribute access in the package reads."""
    root = Path(dualgas.__file__).resolve().parents[2]
    read = {node.attr for path in sorted((root / "src").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute)}
    unread = []
    for name in MODULES:
        mod = importlib.import_module(f"dualgas.{name}")
        for attr in getattr(mod, "__all__", ()):
            cls = getattr(mod, attr)
            if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                continue
            for member, value in vars(cls).items():
                if member.startswith("_") or member in read:
                    continue
                if isinstance(value, (property, staticmethod, classmethod)) or inspect.isfunction(value):
                    unread.append(f"{name}.{attr}.{member}")
    return unread


def test_every_exported_member_is_read_by_the_package():
    # a method or property only tests call is an oracle: it belongs in the
    # tests, where it can be computed from what the package does read
    assert _members_src_never_reads() == []


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


# One small op per command, each in its own output directory.
TRACED_OPS = [
    ["ring-spectrum", "--n", "2", "--imax", "6.5"],
    ["box-spectrum", "--alpha", "5", "--m", "8", "--n-levels", "3"],
    ["fig1", "--m", "6", "--n-grid", "33", "--n-k", "41", "--n-x", "49"],
    ["work", "--geometry", "box", "--protocol", "ramp", "--v", "5", "--tau", "0.05",
     "--m", "4"],
    ["fig2", "--c-list", "1", "--beta-list", "1", "--tau", "0.05", "--m", "4"],
    ["duality-check", "--alpha", "5", "--m", "8"],
    ["convergence", "--m-list", "4,6", "--n-levels", "2"],
    ["eos", "--mu-grid=-2:0:3"],
]


def test_tracer_runs_every_command(tmp_path, tracer):
    # `--trace 1` runs the CLI under the tracer: a writer renamed away, or a
    # result attribute a counter reads, fails its ops
    assert {argv[0] for argv in TRACED_OPS} == set(cli._COMMANDS)
    ops = [[*argv, "--out-dir", str(tmp_path / str(i)), "--threads", "1"]
           for i, argv in enumerate(TRACED_OPS)]
    (tmp_path / "ops.json").write_text(json.dumps(ops))
    r = run_python(["-B", str(TRACER), "ops.json", "spans.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "spans.json").read_text())
    assert doc["exit_codes"] == [0] * len(ops), r.stderr
    names = {span[tracer.NAME] for span in doc["spans"]}
    assert {"output.write_svg_heatmap", "work.propagate_ramp",
            "eos.solve_yang_yang", "boxspec.diagonalize"} <= names
    metrics = tracer.layer_metrics(doc)
    assert metrics["output.write_svg_heatmap.s"] > 0.0 and metrics["output.bytes"] > 0
