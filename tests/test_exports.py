"""Every exported name resolves: each module's ``__all__`` and every name
the package's ``__init__`` imports, so a deletion leaves no stale export.
So does every site the benchmark's layer tracer patches or reads.  And
importing the CLI and loading a file builtin stay cheap."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
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


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every command pays for its imports.  ``dataclasses`` generates each
    # record's methods with ``exec`` and loads ``inspect``, which loads
    # ``ast``, ``dis`` and ``tokenize``.  ``-S`` keeps site hooks out.
    code = "import sys, agentlog.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": str(Path(agentlog.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_a_file_builtin_loads_without_importlib_resources():
    # Importing ``importlib.resources`` costs more than parsing a builtin;
    # the files are read next to ``scenarios.py`` instead.
    code = ("import sys; from agentlog.scenarios import load_scenario; load_scenario('routing5'); "
            "print('importlib.resources' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(agentlog.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_runtime_comm_event_is_the_agents_type():
    # perfbench/layertrace.py counts sends by the type it reads from runtime.
    from agentlog import agents, runtime

    assert runtime.CommEvent is agents.CommEvent


def _layertrace():
    """``perfbench/layertrace.py``, loaded by path and left unpatched."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_sites_resolve():
    layertrace = _layertrace()
    sites = [site for _, *named in layertrace.SITES for site in named]
    assert len(sites) > 10
    missing = [f"{owner}.{attr}" for owner, attr in sites
               if getattr(layertrace._resolve(owner), attr, None) is None]
    assert missing == []


def test_benchmark_counts_read_a_fair_run(example3_scenario, example3_system):
    # The traced counts read a run's states, events and rounds, and the
    # clauses of the agent whose model is evaluated.
    from agentlog.runtime import agent_model, run_fair

    layertrace = _layertrace()
    trace = run_fair(example3_system, env_schedule=example3_scenario.schedule,
                     prefix_events=example3_scenario.script)
    counts = layertrace._counts("runtime.sim", (example3_system,), trace)
    assert counts["points"] == len(trace.events) + 1 == len(trace.states)
    assert counts["rounds"] == len(trace.rounds) > 0
    assert 0 < counts["useful_sends"] <= counts["sends"] <= len(trace.events)
    agent, state = example3_system.agents[0], trace.start[0]
    model = agent_model(agent, state, example3_system.plans[0])
    assert layertrace._counts("agents.model", (agent, state), model) == {
        "clause_visits": len(agent.idb.clauses)
    }
