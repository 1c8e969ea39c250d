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


def wind_bus_injection(case: SystemCase, wind_mw: np.ndarray) -> np.ndarray:
    """Per-bus MW injection vector from per-wind-unit outputs."""
    wind_mw = np.asarray(wind_mw, dtype=float)
    if wind_mw.size != case.n_wind:
        raise DimensionMismatch(
            f"expected {case.n_wind} wind values, got {wind_mw.size}"
        )
    inj = np.zeros(case.n_buses)
    for w, p in zip(case.wind_units, wind_mw):
        inj[case.bus_index(w.bus)] += p
    return inj


def solve_dcopf(
    case: SystemCase,
    wind_mw: np.ndarray,
    load_mw: np.ndarray,
    enforce_limits: bool = True,
    *,
    mats: GridMatrices | None = None,
    segments: int = 8,
) -> DcopfResult:
    """Least-cost dispatch under DC power flow.

    ``wind_mw`` is one value per wind unit (must-take); ``load_mw`` one value
    per bus. With ``enforce_limits`` off, only the power balance and the
    generator capability ranges constrain the dispatch.
    """
    load_mw = np.asarray(load_mw, dtype=float)
    if load_mw.size != case.n_buses:
        raise DimensionMismatch(
            f"expected {case.n_buses} bus loads, got {load_mw.size}"
        )
    if mats is None:
        mats = build_matrices(case)
    ngen = case.n_gens
    curves = [pwl_cost(g, segments) for g in case.generators]
    widths = [c.widths for c in curves]
    nvar = sum(w.size for w in widths)
    offs = np.cumsum([0] + [w.size for w in widths])

    c_obj = np.concatenate([c.slopes for c in curves])
    lo = np.zeros(nvar)
    hi = np.concatenate(widths)
    pmin = np.array([g.p_min for g in case.generators])

    wind_inj = wind_bus_injection(case, wind_mw)
    residual = float(load_mw.sum() - wind_inj.sum() - pmin.sum())
    a_eq = np.ones((1, nvar))
    b_eq = np.array([residual])

    if enforce_limits and case.n_lines:
        gen_cols = np.zeros((case.n_lines, nvar))
        for gi, g in enumerate(case.generators):
            col = mats.ptdf[:, case.bus_index(g.bus)]
            gen_cols[:, offs[gi]:offs[gi + 1]] = col[:, None]
        base_inj = wind_inj - load_mw
        for gi, g in enumerate(case.generators):
            base_inj[case.bus_index(g.bus)] += g.p_min
        base_flow = mats.ptdf @ base_inj
        limits = case.line_limits
        a_le = np.vstack([gen_cols, -gen_cols])
        b_le = np.concatenate([limits - base_flow, limits + base_flow])
    else:
        a_le = np.zeros((0, nvar))
        b_le = np.zeros(0)

    lp = LpProblem(c=c_obj, a_eq=a_eq, b_eq=b_eq, a_le=a_le, b_le=b_le, lo=lo, hi=hi)
    sol = solve_lp(lp)
    if sol.status is not LpStatus.OPTIMAL:
        empty = np.zeros(0)
        return DcopfResult(DcopfStatus.INFEASIBLE, empty, empty, empty, np.inf)

    dispatch = np.array([
        pmin[gi] + sol.x[offs[gi]:offs[gi + 1]].sum() for gi in range(ngen)
    ])
    injection = wind_inj - load_mw
    for gi, g in enumerate(case.generators):
        injection[case.bus_index(g.bus)] += dispatch[gi]
    flows = mats.ptdf @ injection
    angles = mats.angles(injection, case.base_mva)
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
