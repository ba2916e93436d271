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

And three import rules: nothing outside ``repro/tools/`` imports
``repro.tools``; and, checked in a fresh interpreter, a run loads NumPy
and nothing else from outside the standard library, and a kernel launch
loads no thread pool.
"""

import ast
import json
import os
import subprocess
import sys

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro")

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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.dirname(SRC_ROOT), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.dirname(SRC_ROOT), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _LAUNCH_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["False"]
