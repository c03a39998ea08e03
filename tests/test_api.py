"""The package surface: every public name is one the program itself runs,
not a helper only tests call, the program imports neither scipy nor the
process pool at start-up, and the per-step functions take their dots
without the matmul operator."""

import ast
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import implicit_td
from implicit_td import control, envs, learners, stability, stepsize

SRC = Path(implicit_td.__file__).parent


def _reference_graph() -> dict[str | None, set[str]]:
    """Top-level def or class -> the names its body loads; None keys module-level code.

    Imports are not uses, and __init__.py only re-exports.
    """
    graph: dict[str | None, set[str]] = {}
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            refs = graph.setdefault(owner, set())
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    refs.add(sub.id)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    refs.add(sub.attr)
    return graph


def test_every_public_name_is_reachable_from_module_level_code():
    # module-level code (the CLI's command table and __main__ guard among it)
    # is where the program starts; a name reached from no such code is run
    # only by tests
    graph = _reference_graph()
    live: set[str] = set()
    todo = list(graph[None])
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(graph.get(name, ()))
    unused = sorted(set(implicit_td.__all__) - live)
    assert not unused, f"public names no program code reaches: {unused}"


def test_cli_import_loads_no_scipy():
    # scipy is only a test oracle; the program must not pull it in
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (
        "import sys, implicit_td.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # only a parallel sweep needs the pool; importing it would slow every start
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (
        "import sys, implicit_td.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "func",
    [
        learners.standard_step,
        learners.implicit_step,
        stepsize.next_alpha,
        stability.audit_step,
        control.action_values,
        envs.fourier_features,
    ],
    ids=lambda f: f.__name__,
)
def test_per_step_functions_use_ndarray_dot_not_matmul(func):
    # `a @ b` pays the matmul gufunc's dispatch on every call; `a.dot(b)`
    # reaches the same BLAS routine, so the same bytes, with less overhead
    # at the sizes these functions run at (k = 5 to 512)
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    lines = [n.lineno for n in ast.walk(tree) if isinstance(getattr(n, "op", None), ast.MatMult)]
    assert not lines, f"{func.__name__} uses @ on lines {lines} of its source"
