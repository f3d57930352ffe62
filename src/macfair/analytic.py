"""Closed-form channel cycle time predictions for slotted Aloha and CSMA/CA.

Everything here works in slot units and returns plain floats; the simulators
in `sim` provide the empirical counterparts.  The CSMA/CA forms are built from
three ingredients: the collision probability fixed point, the expected total
backoff spent per delivered packet, and the two-part cycle decomposition
(other user's turn, then the owner's run of extra successes).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

from .core import AlohaParams, CsmaMode, CsmaParams


class AnalyticError(ValueError):
    """A closed form was evaluated outside its domain."""


class DegenerateError(AnalyticError):
    """Parameters make the quantity undefined (e.g. no successes possible)."""


class DomainError(AnalyticError):
    """An argument lies outside the formula's validity range."""


class NoRootError(AnalyticError):
    """The fixed-point equation has no root in the open interval (0, 1/2)."""


class EmptyError(AnalyticError):
    """An aggregate over users was given no users."""


class CctMode(Enum):
    ALOHA_SLOTTED = "aloha-slotted"
    CSMA_RTS_CTS = "csma-rtscts"
    CSMA_BASIC = "csma-basic"
    TDMA_ROUND_ROBIN = "tdma"


@dataclass(frozen=True)
class CctComponents:
    """Intermediate quantities behind a cycle-time prediction (None when unused).

    `p_c_residual` and `p_c_iterations` are the diagnostics of the contention
    fixed point, set when `csma_cct` solved it rather than taking `p_c`; as
    diagnostics, not model values, they stay out of the repr.
    """

    part1_mean: float | None = None
    part2_mean: float | None = None
    mu: float | None = None
    p_c: float | None = None
    p_ni0: float | None = None
    e_ni: float | None = None
    p_c_residual: float | None = field(default=None, repr=False)
    p_c_iterations: int | None = field(default=None, repr=False)


@dataclass(frozen=True)
class AnalyticCct:
    """A channel cycle time prediction and the pieces it was assembled from."""

    psi_slots: float
    mode: CctMode
    components: CctComponents

    def __post_init__(self):
        if not 0.0 < self.psi_slots < math.inf:
            raise AnalyticError("cycle time must be positive and finite")


# -- slotted Aloha -----------------------------------------------------------

def _solo_rates(p_a: float, p_b: float) -> tuple[float, float]:
    """Per-slot probabilities s_a = p_a(1-p_b) and s_b = p_b(1-p_a) that A,
    resp. B, transmits alone; a slot is a success with probability s_a + s_b."""
    s_a, s_b = p_a * (1.0 - p_b), p_b * (1.0 - p_a)
    if s_a + s_b == 0.0:
        raise DegenerateError("no single-transmitter slot is possible")
    return s_a, s_b


def aloha_success_split(p_a: float, p_b: float) -> tuple[float, float]:
    """Probability that a successful slot belongs to user A (resp. B):
    the solo rates renormalised, s_a/(s_a+s_b) and s_b/(s_a+s_b)."""
    _check_prob("p_a", p_a)
    _check_prob("p_b", p_b)
    s_a, s_b = _solo_rates(p_a, p_b)
    return s_a / (s_a + s_b), s_b / (s_a + s_b)


def aloha_mean_success_time(params: AlohaParams) -> float:
    """Mean waiting time for the next successful slot, in ticks.

    The wait is geometric with the success rate s_a + s_b, scaled by the slot
    length.
    """
    s_a, s_b = _solo_rates(params.p_a, params.p_b)
    return params.slot / (s_a + s_b)


def aloha_cct(params: AlohaParams) -> AnalyticCct:
    """Channel cycle time of two-user slotted Aloha, in ticks.

    psi = (s_a + s_b) / [(1-p_a)(1-p_b) p_a p_b] * slot.
    Undefined when either probability is 0 or 1: one user then never succeeds
    (or never yields), so no finite cycle exists.
    """
    p_a, p_b = params.p_a, params.p_b
    if p_a in (0.0, 1.0) or p_b in (0.0, 1.0):
        raise DegenerateError("cycle time needs both probabilities inside (0, 1)")
    s_a, s_b = _solo_rates(p_a, p_b)
    # The denominator stays this product: s_a * s_b rounds differently.
    den = (1.0 - p_a) * (1.0 - p_b) * p_a * p_b
    psi = (s_a + s_b) / den * params.slot
    return AnalyticCct(psi, CctMode.ALOHA_SLOTTED, CctComponents())


def aloha_optimum(slot: int = 1) -> tuple[float, float, float]:
    """Fairness-optimal transmit probabilities and the cycle time they achieve.

    The symmetric point (1/2, 1/2) minimises the cycle time and yields
    psi = 8 * slot; the offered load p_a + p_b equals one there.
    """
    p_a = p_b = 0.5
    psi = aloha_cct(AlohaParams(p_a, p_b, slot)).psi_slots
    assert p_a + p_b == 1.0
    return p_a, p_b, psi


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name}={p} outside [0, 1]")


# -- CSMA/CA -----------------------------------------------------------------

@dataclass(frozen=True)
class CollisionFixedPoint:
    """Root of the contention fixed point, with solver diagnostics."""

    p_c: float
    residual: float
    iterations: int


def _check_window(cw_min: int, beta: int) -> None:
    """The window ladder cw_min .. 2**beta * cw_min must fit in a float."""
    if cw_min < 1:
        raise DomainError("cw_min must be at least 1")
    if beta < 0:
        raise DomainError("beta must be non-negative")
    # Every beta >= 1024 fails (2**1024 > float max); testing it first spares
    # an arbitrarily large shift.
    if beta >= 1024 or cw_min << beta > sys.float_info.max:
        raise DomainError(f"largest window 2**{beta} * cw_min does not fit "
                          "in a float")


def _fixed_point_rhs(p: float, cw_min: int, beta: int) -> float:
    denom = ((1.0 - 2.0 * p) * (cw_min + 3.0)
             + p * cw_min * (1.0 - (2.0 * p) ** beta))
    return 2.0 * (1.0 - 2.0 * p) / denom


def solve_collision_probability(cw_min: int, beta: int) -> CollisionFixedPoint:
    """Solve p = 2(1-2p) / [(1-2p)(cw_min+3) + p cw_min (1-(2p)^beta)] on (0, 1/2).

    The difference f(p) = p - rhs(p) is negative at 0+ and positive at 1/2-,
    and the root is unique, so plain bisection suffices.  With beta = 0 the
    equation collapses to p = 2 / (cw_min + 3).

    The bracket [1e-9, 1/2 - 1e-9] is halved until it is at most 1e-15
    wide.  A root at or below 1e-9 (cw_min of about 2**31 and more) is
    bracketed from 0 instead, where f(0) = -2/(cw_min + 3) < 0, and halved
    until the width is at most 1e-15 of the upper end.  Roots between 1e-9
    and about 1e-3 keep the absolute stop, so their relative error may
    reach 1e-6.
    """
    _check_window(cw_min, beta)

    def f(p: float) -> float:
        return p - _fixed_point_rhs(p, cw_min, beta)

    lo, hi = 1e-9, 0.5 - 1e-9
    relative = f(lo) >= 0.0
    if relative:
        lo = 0.0
    if not (f(lo) < 0.0 < f(hi)):
        # cw_min=1, beta=0 pins the root to the boundary p=1/2: two stations
        # that always pick a one-slot backoff collide forever.
        raise NoRootError(
            f"no interior root for cw_min={cw_min}, beta={beta}")
    iterations = 0
    while hi - lo > (1e-15 * hi if relative else 1e-15):
        iterations += 1
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    return CollisionFixedPoint(p, abs(f(p)), iterations)


def expected_backoff_sum(p_c: float, cw_min: int, beta: int) -> float:
    """Expected total backoff drawn while delivering one packet.

    Each collision escalates the window (doubling up to stage beta), each
    attempt draws uniformly from {1..cw}, and the number of collisions is
    geometric with parameter 1 - p_c:

        mu = sum_{i=0}^{beta-1} p_c^i (1 + 2^i cw_min)/2
             + p_c^beta / (1 - p_c) * (1 + 2^beta cw_min)/2.
    """
    if not 0.0 <= p_c < 1.0:
        raise DomainError(f"p_c={p_c} outside [0, 1)")
    _check_window(cw_min, beta)
    total = 0.0
    for i in range(beta):
        total += p_c ** i * (1.0 + (1 << i) * cw_min) / 2.0
    total += p_c ** beta / (1.0 - p_c) * (1.0 + (1 << beta) * cw_min) / 2.0
    return total


def part_count_means(p_ni0: float, e_ni: float = 1.0) -> tuple[float, float]:
    """Expected counts behind the two cycle parts.

    Returns (E[n_b], E[n_a']): the other user's successes before the owner's
    first success, and the owner's extra successes after it.  p_ni0 is the
    probability that a success is followed immediately by another success of
    the same user; runs of extra successes are geometric in it.
    """
    if not 0.0 <= p_ni0 < 1.0:
        raise DomainError(f"p_ni0={p_ni0} outside [0, 1)")
    if not 0.0 <= e_ni < math.inf:
        raise DomainError(f"e_ni={e_ni} outside [0, inf)")
    return e_ni / (1.0 - p_ni0), p_ni0 / (1.0 - p_ni0)


_CCT_MODES = {CsmaMode.RTS_CTS: CctMode.CSMA_RTS_CTS,
              CsmaMode.BASIC: CctMode.CSMA_BASIC}

# P(N_I = 0) observed in simulation under symmetric saturation at cw_min 32.
DEFAULT_P_NI0 = 0.32


def csma_cct(params: CsmaParams, p_ni0: float = DEFAULT_P_NI0, e_ni: float = 1.0,
             mode: CsmaMode = CsmaMode.RTS_CTS,
             p_c: float | None = None) -> AnalyticCct:
    """Channel cycle time of two-user CSMA/CA, in slots.

    RTS/CTS mode:
        psi = [ (l_difs + l_nav) E[N_I] + l_tran
                + (l_difs + l_rcts)/(1 - p_c) + mu ] / (1 - p_ni0)
    Basic mode:
        psi = [ (l_difs + l_tran - 1) E[N_I]
                + (l_difs + l_tran)/(1 - p_c) + mu ] / (1 - p_ni0)

    Both are psi = part1 + part2 built from the mode's defer, attempt and
    payload terms in `CsmaParams.round_terms`.

    p_c defaults to the contention fixed point for the given window; pass an
    empirical value to evaluate the form against a measured run.  p_ni0 and
    e_ni describe the interleaving of the two users' successes; the defaults
    are the values observed under symmetric saturation.
    """
    if not 0.0 < p_ni0 < 1.0:
        raise DomainError(f"p_ni0={p_ni0} outside (0, 1)")
    if not 0.0 < e_ni < math.inf:
        raise DomainError(f"e_ni={e_ni} outside (0, inf)")
    residual = iterations = None
    if p_c is None:
        fixed = solve_collision_probability(params.cw_min, params.beta)
        p_c, residual, iterations = fixed.p_c, fixed.residual, fixed.iterations
    mu = expected_backoff_sum(p_c, params.cw_min, params.beta)
    defer, attempt, payload = params.round_terms(mode)
    e_nb, e_na = part_count_means(p_ni0, e_ni)
    # Expected cost of the owner's tries up to and including its success.
    tries = attempt * (1.0 / (1.0 - p_c)) + mu
    part1 = defer * e_nb + payload + tries
    part2 = e_na * (tries + payload)
    comps = CctComponents(part1_mean=part1, part2_mean=part2, mu=mu,
                          p_c=p_c, p_ni0=p_ni0, e_ni=e_ni,
                          p_c_residual=residual, p_c_iterations=iterations)
    return AnalyticCct(part1 + part2, _CCT_MODES[mode], comps)


def _cw_cost(cw: int, l_difs: int, l_rcts: int) -> float:
    """The window-dependent part of the fixed-window RTS/CTS cycle time."""
    return 2.0 * (l_difs + l_rcts) / (cw + 1.0) + (cw + 1.0) / 2.0


def csma_cct_fixed_window(params: CsmaParams, p_ni0: float = DEFAULT_P_NI0) -> float:
    """RTS/CTS cycle time for a non-escalating window (beta = 0), in slots.

    With a fixed window CW the fixed point is p_c = 2/(CW+3) and the general
    form collapses to

        psi = [ 2(l_difs + l_rcts)/(CW + 1) + (CW + 1)/2 + C ] / (1 - p_ni0),
        C = defer + attempt + payload + 1,

    with the RTS/CTS terms of `CsmaParams.round_terms`, which `csma_cct`
    also uses.
    """
    if params.beta != 0:
        raise DomainError("fixed-window form requires beta = 0")
    if not 0.0 < p_ni0 < 1.0:
        raise DomainError(f"p_ni0={p_ni0} outside (0, 1)")
    defer, attempt, payload = params.round_terms(CsmaMode.RTS_CTS)
    const = defer + attempt + payload + 1
    core = _cw_cost(params.cw_min, params.l_difs, params.l_rcts) + const
    return core / (1.0 - p_ni0)


@dataclass(frozen=True)
class CwOptimum:
    """Stationary point of the fixed-window cycle time, continuous and integer."""

    continuous: float
    integer: int


def cw_min_optimal(l_difs: int, l_rcts: int) -> CwOptimum:
    """Window minimising the fixed-window (beta = 0) RTS/CTS cycle time.

    The CW-dependent part is 2(l_difs+l_rcts)/(CW+1) + (CW+1)/2, minimised at
    CW* = 2 sqrt(l_difs + l_rcts) - 1.  The integer optimum is whichever of
    floor/ceil of CW* gives the smaller value (at least 1).
    """
    if l_difs < 0 or l_rcts < 0 or l_difs + l_rcts <= 0:
        raise DomainError("l_difs + l_rcts must be positive")
    cont = 2.0 * math.sqrt(l_difs + l_rcts) - 1.0
    lo = max(1, math.floor(cont))
    hi = max(1, math.ceil(cont))
    best = min((lo, hi), key=lambda cw: _cw_cost(cw, l_difs, l_rcts))
    return CwOptimum(cont, best)


def rtscts_basic_inflection(p_c: float, l_rcts: int) -> float:
    """Packet exchange length at which RTS/CTS stops paying for itself.

    Below l_tran = (2 - p_c)/p_c * l_rcts the reservation overhead outweighs
    the cheaper collisions and basic mode has the smaller cycle time; above
    it the order flips.
    """
    if not 0.0 < p_c <= 1.0:
        raise DomainError(f"p_c={p_c} outside (0, 1]")
    if l_rcts < 1:
        raise DomainError("l_rcts must be at least 1 slot")
    return (2.0 - p_c) / p_c * l_rcts


# -- TDMA --------------------------------------------------------------------

def tdma_cct(packet_lengths: list[int] | tuple[int, ...]) -> float:
    """Cycle time of round-robin TDMA: the sum of all users' packet lengths.

    Every user's cycle equals one full round, so the channel cycle time is the
    round length itself.
    """
    lengths = list(packet_lengths)
    if not lengths:
        raise EmptyError("TDMA needs at least one user")
    if any(l < 1 for l in lengths):
        raise DomainError("packet lengths must be at least 1 slot")
    return float(sum(lengths))
