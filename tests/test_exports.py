"""Every exported name resolves: each module's ``__all__`` and every name
the package's ``__init__`` imports, so a deletion leaves no stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import agentlog

MODULES = sorted(m.name for m in pkgutil.iter_modules(agentlog.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"agentlog.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(agentlog.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"agentlog.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert hasattr(agentlog, alias.asname or alias.name)


def test_runtime_comm_event_is_the_agents_type():
    # perfbench/layertrace.py counts sends by the type it reads from runtime.
    from agentlog import agents, runtime

    assert runtime.CommEvent is agents.CommEvent
