"""Design-space exploration for variant-based hardware designs.

The package models an application as a tree of kernel invocations (sequence,
parallel, loop), gives every kernel a menu of synthesized area/latency
variants, and selects one variant per kernel to minimize system latency under
an area budget — by exact ILP, exhaustive oracle, or scripted/external
exploration policies driving an interactive session.
"""

from __future__ import annotations

from .agent import (
    Ack,
    Action,
    Budget,
    ExternalPolicy,
    Failure,
    FailureReason,
    IlpFirstPolicy,
    IlpOutcome,
    Inspect,
    KernelView,
    Observation,
    OraclePolicy,
    Outcome,
    Policy,
    Select,
    Session,
    SolveIlp,
    Success,
    SynthResult,
    Synthesize,
    TaskContext,
    Transcript,
    TranscriptEntry,
    TrialAndErrorPolicy,
    action_from_payload,
    action_kind,
    action_to_payload,
    design_summary,
    observation_to_payload,
    run,
)
from .bench import (
    Benchmark,
    builtin,
    builtin_names,
    call_count,
    formula_latency,
    gap_fixture,
    kernel_count,
    load,
    save,
)
from .design import (
    Call,
    Configuration,
    Design,
    Kernel,
    KernelSource,
    KernelVariant,
    Loop,
    Par,
    PragmaConfig,
    Seq,
    area_to_tenths,
    call,
    check_configuration,
    configuration_count,
    design_from_dict,
    design_to_dict,
    dumps_design,
    enumerate_configurations,
    loads_design,
    loop,
    node_summary,
    par,
    seq,
    tenths_to_area,
    validate,
)
from .errors import (
    CapExceeded,
    CyclicDesign,
    EmptyInput,
    FunctionalityBroken,
    HlsDseError,
    InvalidAction,
    InvalidPragma,
    ParseError,
    SessionTerminated,
    TotalTooLarge,
    UnknownBenchmark,
    UnsupportedModel,
    ValidationError,
)
from .experiment import (
    PolicySpec,
    RunRecord,
    ScoreRow,
    ScoreTable,
    derive_seed,
    load_records,
    report,
    run_experiment,
    score,
)
from .ilp import (
    ConstrainedArea,
    IlpModel,
    IlpSolution,
    Lagrangian,
    ObjectiveSpec,
    SolveStatus,
    build_model,
    relax_target,
    solve,
    to_lp_text,
)
from .latency import (
    EvalResult,
    LatencyModelKind,
    OracleReport,
    brute_force_optimum,
    eval_area,
    eval_faulty_latency,
    eval_latency,
    evaluate,
)
from .synth import (
    DEFAULT_MAX_VARIANTS,
    generate_variants,
    synthesize,
    valid_unroll_factors,
)
from .variantgen import (
    DEFAULT_AREA_TARGET_FRACTION,
    BottomUpResult,
    FaultEvent,
    derive_area_target,
    greedy_configuration,
    optimize_bottom_up,
)

__version__ = "0.1.0"
