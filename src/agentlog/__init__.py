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
    message_payload,
    update_env,
    update_input,
    validate_agent,
)
from .grounding import DomainSpec, GroundingError, Pattern, SchematicClause, ground_program
from .logic import (
    AcyclicPlan,
    Atom,
    Clause,
    CyclicProgramError,
    DependencyGraph,
    GroundProgram,
    atom,
    dependency_graph,
    gl_reduct,
    head_set,
    is_acyclic,
    is_stable_model,
    least_model,
    stable_model_acyclic,
    stable_models_bruteforce,
)
from .runtime import (
    AgentChange,
    Trace,
    Verdict,
    comm_transition,
    convergence_model,
    detect_fixpoint,
    divergence_probe,
    env_transition,
    export_trace,
    run_fair,
    run_scripted,
    stabilized_environment,
    verdict,
)
from .scenarios import (
    Scenario,
    ScenarioError,
    Topology,
    bfs_oracle,
    builtin_scenario,
    chain_system,
    load_scenario,
    output_projection,
    parse_scenario,
    routing_system,
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
