"""DC optimal power flow in constrained and line-limit-relaxed modes.

All thermal units are online and dispatched within [p_min, p_max]; wind is
must-take; the network is reduced through the PTDF so the LP decision
variables are the piecewise-linear dispatch segments only. Angles are
recovered from the reduced susceptance matrix afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch
from .grid import GridMatrices, SystemCase, build_matrices
from .pwl import pwl_cost
from .simplex import LpProblem, LpStatus, solve_lp

FEASIBILITY_TOL_MW = 1e-6
SEGMENTS = 8  # PWL cost segments per generator, the LP's columns


class DcopfStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass
class DcopfResult:
    status: DcopfStatus
    dispatch: np.ndarray  # MW per generator
    angles: np.ndarray    # rad per bus, ref fixed at zero
    flows: np.ndarray     # MW per line
    objective: float


@dataclass
class FeasibilityLabel:
    value: int                 # +1 feasible, -1 infeasible
    worst_violation: float     # MW
    violating_lines: list[int]


def dispatch_problem(slopes, widths, on, net, coef, rhs) -> LpProblem:
    """Segment LP over T hours: columns delta[(t*G + g)*K + k] of the (G, K)
    PWL curves, closed where the (T, G) ``on`` is 0. Hour t's segments sum
    to ``net[t]``; coef (R, T*G) @ the hour-major unit output <= rhs (R,)."""
    T, (G, K) = len(net), slopes.shape
    return LpProblem(
        c=np.tile(slopes.ravel(), T),
        a_eq=np.repeat(np.eye(T), G * K, axis=1), b_eq=net,
        a_le=np.repeat(coef, K, axis=1), b_le=rhs, lo=np.zeros(T * G * K),
        hi=np.tile(widths.ravel(), T) * np.repeat(np.ravel(on), K))


def solve_dcopf(
    case: SystemCase,
    wind_mw: np.ndarray,
    load_mw: np.ndarray,
    enforce_limits: bool = True,
    *,
    mats: GridMatrices | None = None,
) -> DcopfResult:
    """Least-cost dispatch under DC power flow.

    ``wind_mw`` is one value per wind unit (must-take); ``load_mw`` one value
    per bus. With ``enforce_limits`` off, only the power balance and the
    generator capability ranges constrain the dispatch.
    """
    wind_mw = np.asarray(wind_mw, dtype=float)
    load_mw = np.asarray(load_mw, dtype=float)
    if load_mw.size != case.n_buses:
        raise DimensionMismatch(
            f"expected {case.n_buses} bus loads, got {load_mw.size}"
        )
    if wind_mw.size != case.n_wind:
        raise DimensionMismatch(
            f"expected {case.n_wind} wind values, got {wind_mw.size}"
        )
    if mats is None:
        mats = build_matrices(case)
    curves = [pwl_cost(g, SEGMENTS) for g in case.generators]
    pmin = np.array([g.p_min for g in case.generators])

    coef, rhs = np.zeros((0, case.n_gens)), np.zeros(0)
    if enforce_limits:
        base_flow = mats.ptdf @ mats.injection(load_mw, wind_mw, pmin)
        coef, rhs = mats.flow_rows(case.line_limits, base_flow)
    sol = solve_lp(dispatch_problem(
        np.array([c.slopes for c in curves]),
        np.array([c.widths for c in curves]), np.ones((1, case.n_gens)),
        np.array([load_mw.sum() - wind_mw.sum() - pmin.sum()]), coef, rhs))
    if sol.status is not LpStatus.OPTIMAL:
        empty = np.zeros(0)
        return DcopfResult(DcopfStatus.INFEASIBLE, empty, empty, empty, np.inf)

    dispatch = pmin + sol.x.reshape(-1, SEGMENTS).sum(axis=1)
    injection = mats.injection(load_mw, wind_mw, dispatch)
    flows = mats.ptdf @ injection
    angles = mats.angles(injection)
    fixed = sum(g.c0 + c.base_value for g, c in zip(case.generators, curves))
    return DcopfResult(DcopfStatus.OPTIMAL, dispatch, angles, flows,
                       float(sol.objective + fixed))


def check_feasibility(case: SystemCase, flows_mw: np.ndarray) -> FeasibilityLabel:
    """Label a flow vector against the thermal line limits."""
    flows_mw = np.asarray(flows_mw, dtype=float)
    if flows_mw.size != case.n_lines:
        raise DimensionMismatch(
            f"expected {case.n_lines} flows, got {flows_mw.size}"
        )
    excess = np.abs(flows_mw) - case.line_limits
    worst = float(max(0.0, excess.max())) if excess.size else 0.0
    violating = [int(i) for i in np.nonzero(excess > FEASIBILITY_TOL_MW)[0]]
    value = -1 if violating else 1
    return FeasibilityLabel(value=value, worst_violation=worst,
                            violating_lines=violating)
