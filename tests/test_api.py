import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import mdots

MODULES = ["mdots"] + [f"mdots.{m.name}" for m in pkgutil.iter_modules(mdots.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _load_bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_bench_tracing()
HOOKED = [(module, path) for module, path, *_ in TRACING.HOOKS] + list(TRACING.OBJECTIVE_FACTORIES)


@pytest.mark.parametrize("module, path", HOOKED, ids=[f"{m}.{p}" for m, p in HOOKED])
def test_every_benchmark_hook_resolves(module, path):
    # The benchmark's tracer rebinds these names from outside the package, so each must stay a callable.
    target = importlib.import_module(module)
    for part in path.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_records_owns_the_run_record_and_imports_no_other_mdots_module():
    from mdots.records import IterationEntry, RunRecord

    assert {RunRecord.__module__, IterationEntry.__module__} == {"mdots.records"}
    tree = ast.parse(Path(mdots.records.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert [name for name in imported if name.startswith((".", "mdots"))] == []
