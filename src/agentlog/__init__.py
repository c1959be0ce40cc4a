"""Push-based systems of deductive-database information agents.

Agents hold an acyclic rule base, sense part of a shared environment and
push derived facts to dependants.  This package grounds such systems,
executes scripted or fair runs, detects fixpoints and divergence, and
judges runs against the superagent reference model.
"""

from .agents import (
    AgentSpec,
    AgentState,
    CommEvent,
    EnvChange,
    agent_model,
    dependency,
    validate_agent,
)
from .grounding import DomainSpec, GroundingError, Pattern, SchematicClause, ground_program
from .logic import (
    AcyclicPlan,
    Atom,
    CyclicProgramError,
    DependencyGraph,
    GroundProgram,
    atom,
    gl_reduct,
    head_set,
    is_stable_model,
    least_model,
    stable_models_bruteforce,
)
from .runtime import (
    AgentChange,
    Trace,
    Verdict,
    detect_fixpoint,
    divergence_probe,
    export_trace,
    run_fair,
    run_scripted,
    stabilized_environment,
    verdict,
    write_trace,
)
from .scenarios import (
    Scenario,
    ScenarioError,
    Topology,
    builtin_scenario,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from .system import (
    Classification,
    MultiAgentSystem,
    ValidationError,
    build_system,
    classify,
    io_graph,
    superagent,
    superagent_model,
)

__version__ = "0.1.0"
