"""Reduction compiler and certification toolkit for Feedback Vertex Set on
restricted Hamiltonian graph classes."""

from .graph import (
    Builder,
    Graph,
    GraphError,
    HamCycleWitness,
    Instance,
    TraceStep,
    check_regular,
    faces,
)
from .solvers import (
    FvsSolution,
    SolverError,
    UndecidedError,
    check_ore_condition,
    check_planarity,
    find_hamiltonian_cycle,
    fvs_branch_reduce,
    fvs_exact_exhaustive,
    is_fvs,
)
from .gadgets import (
    Gadget,
    GadgetReport,
    build_gadget,
    certify_gadget,
)
from .pipeline import (
    CertificationError,
    PipelineError,
    PipelineResult,
    StageResult,
    TwoFactor,
    compute_two_factor,
    eliminate_degree_two,
    evenize,
    five_regularize,
    ham_ordered_lift,
    hamiltonize,
    merge_step,
    p_regularize,
    pair_degree_three,
    replay_trace,
    run_pipeline,
)
from .textio import parse_graph, trace_to_json, verify_trace, write_graph

__version__ = "0.1.0"
