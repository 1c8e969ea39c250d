"""Independent checks of the program's outputs, and fidelity figures.

A TSUC solution is re-checked against the instance it claims to solve from
its returned commitment and dispatch alone: status and gap, the objective
re-priced from start/stop, no-load and ``PwlCost.value``, balance, unit
limits, ramps, min-up/min-down and, per mode, the line limits through the
PTDF or the learned halfspace. Each function returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

from ucsm.pwl import pwl_cost

OBJ_REL_TOL = 1e-6   # re-priced objective and reference objectives
MW_TOL = 1e-5        # balance, unit limits, ramps and line flows
HALFSPACE_TOL = 1e-6  # decision value of the learned rule


def _transitions(u: np.ndarray, u0: np.ndarray):
    prev = np.column_stack([u0, u[:, :-1]])
    return (u > prev).astype(int), (u < prev).astype(int)


def reprice(inst, u: np.ndarray, p: np.ndarray) -> float:
    """Expected cost of a commitment and a (G, S, T) dispatch."""
    gens = inst.case.generators
    y, z = _transitions(u, inst.initial_status)
    cost = 0.0
    for g, gen in enumerate(gens):
        curve = pwl_cost(gen, inst.pwl_segments)
        cost += gen.startup_cost * y[g].sum() + gen.shutdown_cost * z[g].sum()
        for s, scen in enumerate(inst.scenarios):
            for t in range(inst.horizon):
                if u[g, t]:
                    cost += scen.probability * (gen.c0 + curve.value(p[g, s, t]))
    return float(cost)


def line_flows(inst, mats, p: np.ndarray) -> np.ndarray:
    """(L, S, T) PTDF flows of a (G, S, T) dispatch."""
    case = inst.case
    inj = np.zeros((case.n_buses, len(inst.scenarios), inst.horizon))
    for s, scen in enumerate(inst.scenarios):
        inj[:, s, :] -= scen.loads(case)
        for w, unit in enumerate(case.wind_units):
            inj[case.bus_index(unit.bus), s, :] += scen.wind_mw[w]
    for g, gen in enumerate(case.generators):
        inj[case.bus_index(gen.bus)] += p[g]
    return np.einsum("lb,bst->lst", mats.ptdf, inj)


def halfspace_values(inst, p: np.ndarray) -> np.ndarray:
    """(S, T) decision values of the learned rule on the dispatch."""
    h = inst.hyperplane
    out = np.empty((len(inst.scenarios), inst.horizon))
    for s, scen in enumerate(inst.scenarios):
        feats = np.array([np.concatenate([scen.mu, scen.sigma, p[:, s, t]])
                          for t in range(inst.horizon)])
        out[s] = h.decision(feats)
    return out


def check_tsuc(sol, inst, mats, gap_tol: float,
               reference: float | None = None) -> list[str]:
    """Problems found in one ``solve_tsuc`` result (empty when it passes)."""
    if sol.status.value != "optimal":
        return [f"status {sol.status.value}"]
    bad = []
    if not sol.stats.gap <= gap_tol:
        bad.append(f"gap {sol.stats.gap:.3g} > {gap_tol:.3g}")
    case = inst.case
    G, S, T = case.n_gens, len(inst.scenarios), inst.horizon
    u = np.asarray(sol.schedule.u)
    p = np.asarray(sol.dispatch, dtype=float)
    if u.shape != (G, T) or p.shape != (G, S, T):
        return bad + [f"shapes u{u.shape} p{p.shape}"]
    if not np.isin(u, (0, 1)).all():
        return bad + ["commitment not binary"]

    cost = reprice(inst, u, p)
    if abs(cost - sol.objective) > OBJ_REL_TOL * max(1.0, abs(cost)):
        bad.append(f"objective {sol.objective:.10g} != re-priced {cost:.10g}")
    # Both the answer and the reference lie within the gap of the optimum.
    if reference is not None and abs(sol.objective - reference) > (
            (OBJ_REL_TOL + 2.0 * gap_tol) * max(1.0, abs(reference))):
        bad.append(f"objective {sol.objective:.10g} != reference "
                   f"{reference:.10g}")

    net = np.array([[scen.loads(case)[:, t].sum() - scen.wind_mw[:, t].sum()
                     for t in range(T)] for scen in inst.scenarios])
    if np.abs(p.sum(axis=0) - net).max() > MW_TOL:
        bad.append("balance violated")
    pmin = np.array([g.p_min for g in case.generators])[:, None, None]
    pmax = np.array([g.p_max for g in case.generators])[:, None, None]
    uu = u[:, None, :]
    if (p < pmin * uu - MW_TOL).any() or (p > pmax * uu + MW_TOL).any():
        bad.append("unit limits violated")
    ru = np.array([g.ramp_up for g in case.generators])[:, None, None]
    rd = np.array([g.ramp_down for g in case.generators])[:, None, None]
    dp = np.diff(p, axis=2)
    if (dp > ru + MW_TOL).any() or (-dp > rd + MW_TOL).any():
        bad.append("ramp violated")
    y, z = _transitions(u, inst.initial_status)
    for g, gen in enumerate(case.generators):
        for t in range(T):
            if y[g, t] and not u[g, t:t + gen.min_up].all():
                bad.append(f"min-up violated g{g} t{t}")
            if z[g, t] and u[g, t:t + gen.min_down].any():
                bad.append(f"min-down violated g{g} t{t}")

    if inst.mode.value == "full":
        over = np.abs(line_flows(inst, mats, p)) - case.line_limits[:, None, None]
        if over.max() > MW_TOL:
            bad.append(f"line overload {over.max():.3g} MW in full mode")
    elif halfspace_values(inst, p).min() < -HALFSPACE_TOL:
        bad.append("learned halfspace violated in surrogate mode")
    return bad


def overloads(inst, mats, p: np.ndarray) -> tuple[int, int, float]:
    """(overloaded line-hours, line-hours, worst overload MW) of a dispatch."""
    over = (np.abs(line_flows(inst, mats, p))
            - inst.case.line_limits[:, None, None])
    return int((over > MW_TOL).sum()), int(over.size), float(max(over.max(), 0.0))
