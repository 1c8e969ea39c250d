"""DC optimal power flow, with and without the thermal line limits.

All thermal units are online and dispatched within [p_min, p_max]; wind is
must-take; the network is reduced through the PTDF so the LP decision
variables are the piecewise-linear dispatch segments only, and a result
is the dispatch and its cost: a caller that wants flows or angles forms
them from the dispatch's injection (``GridMatrices.injection``). Without
line limits the dispatch is a merit-order fill, batched, with no LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .grid import GridMatrices, SystemCase, build_matrices
from .pwl import pwl_cost
from .simplex import FEAS_TOL, LpProblem, LpStatus, solve_lp

FEASIBILITY_TOL_MW = 1e-6
SEGMENTS = 8  # PWL cost segments per generator, the LP's columns


@dataclass
class DcopfResult:
    status: LpStatus  # the LP's own
    dispatch: np.ndarray  # MW per generator
    objective: float


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


@lru_cache(maxsize=8)
def dispatch_segments(case: SystemCase, k: int = SEGMENTS) -> tuple:
    """A case's units as PWL segments: (G, k) slopes and widths, and per unit
    its p_min and its cost there, no-load cost included. Built once per
    case and ``k`` (gen-data solves thousands of DCOPFs on one case) and
    shared, so the arrays are read-only."""
    curves = [pwl_cost(g, k) for g in case.generators]
    segs = tuple(np.array(v) for v in (
        [c.slopes for c in curves], [c.widths for c in curves],
        [g.p_min for g in case.generators],
        [g.c0 + c.base_value for g, c in zip(case.generators, curves)]))
    for a in segs:
        a.flags.writeable = False
    return segs


def merit_order_dispatch(slopes, widths, p_min, net_mw):
    """The line-limit-free DCOPF for n net loads (MW of load net of wind and
    of the summed p_min): one balance row, so the LP optimum fills the
    (G, K) segments in slope order. Returns the (n, G) dispatch and an (n,)
    mask, False where the LP is infeasible: the net load lies outside
    [0, summed widths] by more than ``FEAS_TOL`` relative to it. Tied
    slopes make the optimum non-unique; the stable sort fills ties in unit
    order."""
    net = np.asarray(net_mw, dtype=float)
    order = np.argsort(slopes, axis=None, kind="stable")
    w = widths.ravel()[order]
    top = np.cumsum(w)
    fill = np.empty((net.size, w.size))
    fill[:, order] = np.clip(net[:, None] - np.concatenate(([0.0], top[:-1])),
                             0.0, w)
    ok = np.maximum(-net, net - top[-1]) <= FEAS_TOL * (1.0 + np.abs(net))
    return p_min + fill.reshape(net.size, *slopes.shape).sum(axis=2), ok


def solve_dcopf(
    case: SystemCase,
    wind_mw: np.ndarray,
    load_mw: np.ndarray,
    *,
    mats: GridMatrices | None = None,
) -> DcopfResult:
    """Least-cost dispatch under DC power flow and the thermal line limits.

    ``wind_mw`` is one value per wind unit (must-take); ``load_mw`` one value
    per bus.
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
    slopes, widths, pmin, fixed = dispatch_segments(case)
    base_flow = mats.ptdf @ mats.injection(load_mw, wind_mw, pmin)
    sol = solve_lp(dispatch_problem(
        slopes, widths, np.ones((1, case.n_gens)),
        np.array([load_mw.sum() - wind_mw.sum() - pmin.sum()]),
        *mats.flow_rows(case.line_limits, base_flow)))
    if sol.status is not LpStatus.OPTIMAL:
        return DcopfResult(sol.status, np.zeros(0), np.inf)
    # Left to right in unit order: numpy sums eight or more terms pairwise.
    return DcopfResult(sol.status,
                       pmin + sol.x.reshape(-1, SEGMENTS).sum(axis=1),
                       float(sol.objective + sum(fixed.tolist())))


def check_feasibility(case: SystemCase, flows_mw: np.ndarray) -> np.ndarray:
    """Label each column of (L, ...) line flows: +1 within the thermal
    limits, -1 where any line exceeds its limit by more than
    ``FEASIBILITY_TOL_MW``."""
    flows_mw = np.asarray(flows_mw, dtype=float)
    if flows_mw.ndim == 0 or len(flows_mw) != case.n_lines:
        raise DimensionMismatch(
            f"expected {case.n_lines} flows, got shape {flows_mw.shape}"
        )
    excess = np.abs(np.moveaxis(flows_mw, 0, -1)) - case.line_limits
    return np.where((excess > FEASIBILITY_TOL_MW).any(axis=-1), -1, 1)
