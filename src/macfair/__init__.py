"""macfair: a short-term fairness laboratory for MAC protocols.

Measures channel cycle times from transmission traces, evaluates closed-form
predictions for slotted Aloha and CSMA/CA, and cross-validates the two with
slot-level simulators (Aloha, CSMA/CA basic and RTS/CTS, round-robin TDMA).
"""
from types import ModuleType as _ModuleType

from .core import (
    AlohaParams,
    ChannelEvent,
    ChannelTrace,
    CsmaMode,
    CsmaParams,
    EventKind,
    MICROS_PER_SLOT,
    OrderError,
    OverlapError,
    TraceError,
    TraceParseError,
    UnitError,
    UnknownUserError,
    collision,
    idle,
    slots_to_us,
    success,
    successes_of,
    us_to_slots,
    validate_trace,
)
from .metrics import (
    CycleTimeReport,
    InterTxReport,
    PartSplit,
    TooFewUsersError,
    channel_cycle_time,
    cycle_intervals,
    cycle_times,
    inter_transmission_report,
    inter_transmissions,
    part_decomposition,
    refresh_moments,
    throughput,
)
from .analytic import (
    AnalyticCct,
    AnalyticError,
    CctComponents,
    CctMode,
    CollisionFixedPoint,
    CwOptimum,
    DegenerateError,
    DomainError,
    EmptyError,
    NoRootError,
    aloha_cct,
    aloha_mean_success_time,
    aloha_optimum,
    aloha_success_split,
    csma_cct,
    csma_cct_fixed_window,
    cw_min_optimal,
    expected_backoff_sum,
    part_count_means,
    rtscts_basic_inflection,
    solve_collision_probability,
    tdma_cct,
)
from .sim import (
    CsmaAudit,
    SimConfig,
    empirical_collision_probability,
    reconstruct_parts,
    simulate_aloha,
    simulate_csma,
    simulate_tdma,
    write_audit,
)

__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
