"""Layering lint: no module under ``src/repro`` reaches into another
module's privates.

Two AST rules, no third-party dependency:

- no ``from repro.x import _name`` (a private name crossing a module
  boundary);
- no ``obj._attr`` on anything but ``self``/``cls`` unless a class in the
  *same file* defines ``_attr`` (a module may know its own classes'
  internals — ``kbase.py`` touching ``tenant._page_table`` — but nobody
  else's).

A failure lists ``file:line`` per offence. Fix it by giving the owning
class a public accessor (or moving the logic to the owner), not by
extending :data:`ALLOWED`.

And four import rules: nothing outside ``repro/tools/`` imports
``repro.tools``; and, checked in a fresh interpreter, a run loads NumPy
and nothing else from outside the standard library, a kernel launch
loads no thread pool, and creating a context loads no compiler or
verifier.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")

#: private-looking names that are somebody's *public* API
ALLOWED = {
    "_replace", "_asdict", "_fields", "_make",  # namedtuple
    "_exit",  # os._exit: the farm's chaos hook kills a worker with it
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _python_files():
    for directory, _dirs, files in sorted(os.walk(SRC_ROOT)):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _class_private_names(tree):
    """Every private name some class in *tree* defines: methods,
    class-level assignments, ``__slots__`` entries and ``self._x = ...``
    / ``cls._x = ...`` stores inside its body."""
    names = set()
    for klass in ast.walk(tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        for node in ast.walk(klass):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in ("self", "cls"):
                names.add(node.attr)
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name)
                    and target.id == "__slots__"
                    for target in node.targets):
                names.update(
                    elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str))
    return {name for name in names if _private(name)}


def lint_source(source, filename="<string>"):
    """Offences in one module's *source*, as ``(line, message)`` pairs."""
    tree = ast.parse(source, filename=filename)
    own = _class_private_names(tree)
    offences = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == "repro" \
                    or module.startswith("repro."):
                for alias in node.names:
                    if _private(alias.name):
                        offences.append((
                            node.lineno,
                            f"private import: from {module} import "
                            f"{alias.name}"))
        elif isinstance(node, ast.Attribute) and _private(node.attr) \
                and node.attr not in ALLOWED and node.attr not in own:
            if isinstance(node.value, ast.Name) \
                    and node.value.id in ("self", "cls"):
                continue
            offences.append((
                node.lineno,
                f"private attribute access: "
                f"{ast.unparse(node.value)}.{node.attr}"))
    return sorted(offences)


def test_no_private_access_across_modules():
    problems = []
    for path in _python_files():
        with open(path) as handle:
            source = handle.read()
        relative = os.path.relpath(path, os.path.dirname(SRC_ROOT))
        problems.extend(f"{relative}:{line}: {message}"
                        for line, message in lint_source(source, path))
    assert not problems, (
        f"{len(problems)} layering offence(s):\n" + "\n".join(problems))


def _imports_tools(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return False
    return any(name == "repro.tools" or name.startswith("repro.tools.")
               for name in names)


def test_nothing_below_the_tools_imports_them():
    """``repro.tools`` is the top layer: the CLI reads every subsystem,
    and no subsystem reports through the CLI."""
    tools = os.path.join(SRC_ROOT, "tools", "")
    problems = []
    for path in _python_files():
        if path.startswith(tools):
            continue
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        relative = os.path.relpath(path, os.path.dirname(SRC_ROOT))
        problems.extend(f"{relative}:{node.lineno}"
                        for node in ast.walk(tree) if _imports_tools(node))
    assert not problems, "repro.tools imported from below:\n" + "\n".join(
        problems)


def test_lint_catches_the_shapes_it_claims_to():
    """The lint itself: each rule fires, each exemption holds."""
    assert lint_source("from repro.mem.physical import _PAGE_MASK\n")
    assert lint_source("def f(mmu):\n    return mmu._walker\n")
    assert lint_source("import m\nx = m._helper(1)\n")
    assert not lint_source("from repro.mem.physical import PAGE_SIZE\n")
    assert not lint_source(
        "class A:\n"
        "    def __init__(self):\n"
        "        self._x = 0\n"
        "def peek(a):\n"
        "    return a._x\n")
    assert not lint_source("def f(row):\n    return row._replace(a=1)\n")
    assert not lint_source("def f(obj):\n    return obj.__dict__\n")


def _probe(source):
    """Standard output of *source* run in a fresh interpreter from the
    repository root: pytest plugins and earlier tests may have imported
    anything into this one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.dirname(SRC_ROOT), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", source], env=env,
                          cwd=REPO_ROOT, check=True, capture_output=True,
                          text=True).stdout


_IMPORT_PROBE = """
import json, sys
at_startup = set(sys.modules)  # the interpreter's own and site hooks
import repro.cl, repro.kernels, repro.tools.cli, repro.validate.farm
repro.cl.Context()
# __mp_main__ is multiprocessing's alias of __main__, not a package
print(json.dumps(sorted(
    {name.partition(".")[0] for name in set(sys.modules) - at_startup}
    - set(sys.stdlib_module_names) - {"repro", "__mp_main__"})))
"""


def test_a_run_imports_numpy_and_nothing_else():
    """In a subprocess: pytest plugins may import anything into this
    one. Every farm worker, checkpoint resume and e2e workload pays for
    whatever ``import repro`` pulls in."""
    out = _probe(_IMPORT_PROBE)
    assert json.loads(out) == ["numpy"]


_LAUNCH_PROBE = """
import sys
import repro.cl
context = repro.cl.Context()
kernel = context.build_program(
    "__kernel void k(__global int* out) { out[get_global_id(0)] = 1; }"
).kernel("k")
buffer = context.alloc_buffer(64)
kernel.set_args(buffer)
repro.cl.CommandQueue(context).enqueue_nd_range(kernel, (16,), (16,))
print("concurrent.futures" in sys.modules)
"""


def test_a_launch_loads_no_thread_pool():
    """The Job Manager runs a job on one execution unit: nothing on the
    launch path imports ``concurrent.futures``, which every fresh process
    would otherwise pay for."""
    out = _probe(_LAUNCH_PROBE)
    assert out.split() == ["False"]


_CONTEXT_PROBE = """
import sys
import repro, repro.cl
repro.cl.Context()

def build_stack():
    return any(name.startswith(("repro.clc", "repro.gpu.verify"))
               for name in sys.modules)

print(build_stack())
repro.cl.Context().build_program("__kernel void k(__global int* out) {}")
print("repro.clc" in sys.modules, "repro.gpu.verify" in sys.modules)
print(callable(repro.compile_source))
"""


def test_a_context_loads_no_compiler():
    """Creating a context loads no compiler or verifier: a process that
    only moves data never pays for them. ``repro.compile_source`` still
    resolves, and the first build loads both."""
    out = _probe(_CONTEXT_PROBE)
    assert out.split() == ["False", "True", "True", "True"]


#: the modules a farm worker runs and a config load must not pay for
_BUILD_STACK = ("repro.clc.compiler", "repro.gpu.verify.pipeline",
                "repro.validate.progen", "repro.validate.conformance")

_FARM_LOAD_PROBE = """
import json, sys
from repro.validate.farm import expand_cases, load_config
expand_cases(load_config("benchmarks/e2e/farm_sweep.json"))
print(json.dumps(sorted(set(sys.modules) & set(%r))))
""" % (_BUILD_STACK,)


def test_a_farm_config_load_loads_no_build_stack():
    """Loading and expanding the benchmark's farm config (what ``farm
    plan`` does) loads neither the compiler, the verifier's passes nor
    the program generator: only a worker runs them."""
    assert json.loads(_probe(_FARM_LOAD_PROBE)) == []


_PACKAGES = ("repro.validate", "repro.gpu.verify", "repro.clc")


@pytest.mark.parametrize("package", _PACKAGES)
def test_a_bare_package_import_loads_none_of_its_submodules(package):
    """The three packages resolve the names they re-export on first
    access: importing one loads none of its submodules."""
    out = _probe(f"import sys, {package}\n"
                 f"print(sorted(n for n in sys.modules "
                 f"if n.startswith('{package}.')))")
    assert out.split() == ["[]"]


@pytest.mark.parametrize("package", _PACKAGES)
def test_every_package_export_resolves_to_its_submodule(package):
    module = importlib.import_module(package)
    table = module._EXPORTS
    assert sorted(module.__all__) == sorted(table)
    for name in module.__all__:
        source = importlib.import_module(f"{package}.{table[name]}")
        value = getattr(module, name)
        assert value is getattr(source, name), name
        assert getattr(value, "__module__", source.__name__) \
            == source.__name__, name
    with pytest.raises(AttributeError):
        module.no_such_name  # noqa: B018


_WORKER_PROBE = """
import importlib, json, sys
from repro.validate.farm import expand_cases, load_config
from repro.validate.farm.manager import WORKER_MODULES
from repro.validate.farm.worker import execute_case
cases = expand_cases(load_config("examples/farm/smoke.json")) + expand_cases(
    load_config({"sweeps": [{"kind": "selftest"}]}))
first = {}
for case in cases:
    first.setdefault(case["kind"], case)
for name in WORKER_MODULES:
    importlib.import_module(name)
loaded = set(sys.modules)
verdicts = {kind: execute_case(case, None)["verdict"]
            for kind, case in first.items()}
print(json.dumps({"verdicts": verdicts, "imported": sorted(
    name for name in set(sys.modules) - loaded
    if name.startswith("repro"))}))
"""


def test_a_forked_worker_imports_nothing():
    """After ``run_farm``'s pre-fork import of :data:`WORKER_MODULES`,
    one case of each kind the smoke config sweeps, plus a selftest case,
    runs without importing a ``repro`` module: no forked worker compiles
    one from source for itself."""
    result = json.loads(_probe(_WORKER_PROBE))
    assert result["verdicts"] == dict.fromkeys(
        ("conformance", "fault", "lint", "bench", "selftest"), "pass")
    assert result["imported"] == []
