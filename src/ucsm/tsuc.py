"""Two-stage stochastic unit commitment MILP and its branch-and-bound solver.

First-stage commitment binaries u/y/z are shared across scenarios; second
stage dispatches each scenario under piecewise-linear costs. Bus angles are
eliminated through the PTDF, so the per-bus balance collapses to one
system-wide balance row per (scenario, hour) and line limits become linear
rows over the dispatch. Angles are recovered afterwards; per-bus balance
holds by construction.

Network/ramp rows are activated lazily during the solve: a node LP is
re-solved with every violated row added until none remain, so each node
bound equals the bound of the fully constrained relaxation.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dcopf import dispatch_problem, dispatch_segments
from .errors import FeatureMismatch, TooLarge
from .grid import GridMatrices, SystemCase, build_matrices
from .scenarios import Scenario
from .simplex import (LpProblem, LpSolution, LpStart, LpStatus,
                      remap_start, slack_start, solve_lp)
from .svm import Hyperplane

SURROGATE_TOL = 1e-9
FLOW_TOL_MW = 1e-6
INTEGRALITY_TOL = 1e-6
DEFAULT_GAP_TOL = 1e-6
MAX_NODES = 100_000
BRUTE_FORCE_MAX_BITS = 16


class TsucMode(Enum):
    FULL_NETWORK = "full"
    SURROGATE = "surrogate"


class TsucStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NODE_LIMIT = "node_limit"


@dataclass
class TsucInstance:
    case: SystemCase
    scenarios: list[Scenario]
    horizon: int
    mode: TsucMode
    hyperplane: Hyperplane | None = None
    pwl_segments: int = 4
    initial_status: np.ndarray | None = None  # u_{g,0}, default all off

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self.scenarios:
            raise ValueError("need at least one scenario")
        if self.pwl_segments < 1:
            raise ValueError("pwl_segments must be >= 1")
        if self.mode is TsucMode.SURROGATE and self.hyperplane is None:
            raise ValueError("surrogate mode requires a hyperplane")
        if self.initial_status is None:
            self.initial_status = np.zeros(self.case.n_gens, dtype=int)
        u0 = np.asarray(self.initial_status)
        if u0.shape != (self.case.n_gens,) or not np.isin(u0, (0, 1)).all():
            raise ValueError("initial_status must be one 0 or 1 per generator")


@dataclass
class Schedule:
    u: np.ndarray  # (G, T) in {0,1}
    y: np.ndarray
    z: np.ndarray


@dataclass
class SolveStats:
    nodes: int = 0
    lp_solves: int = 0
    lp_iterations: int = 0  # simplex iterations over node and dispatch LPs
    cold_fallbacks: int = 0  # node and dispatch LPs given a start, solved cold
    wall_time: float = 0.0
    gap: float = 0.0


@dataclass
class TsucSolution:
    status: TsucStatus
    schedule: Schedule | None
    dispatch: np.ndarray | None   # (G, S, T) MW
    angles: np.ndarray | None     # (N, S, T) rad
    objective: float
    stats: SolveStats


def constraint_counts(n_lines: int, n_scenarios: int, horizon: int) -> dict:
    """Exact feasibility-row counts for both modes (count-only, no build)."""
    full = 2 * n_lines * n_scenarios * horizon
    surrogate = n_scenarios * horizon
    reduction = 100.0 * (1.0 - surrogate / full) if full else 0.0
    return {"full_rows": full, "surrogate_rows": surrogate,
            "reduction_pct": reduction}


def minimal_transitions(u: np.ndarray, u0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest y/z consistent with the commitment path (no spurious pairs)."""
    prev = np.column_stack([u0, u[:, :-1]])
    delta = u - prev
    return (delta > 0).astype(int), (delta < 0).astype(int)


def schedule_is_logical(case: SystemCase, u: np.ndarray, u0: np.ndarray) -> bool:
    """Min-up/min-down windows (truncated at the horizon) hold on a binary
    path: the repair has nothing to add."""
    return np.array_equal(_repair_schedule(case, u, u0), u)


class _Milp:
    """Compact TSUC MILP: columns [u, y, z, delta], rows built on demand.

    The index arrays u_idx (G, T) and d_idx (G, S, T, K) are the column
    layout: u is hour-major so branching ties prefer earlier hours, y and z
    sit at n_u + u_idx and 2*n_u + u_idx, and delta follows them.

    Eager rows: 5*G*T <= rows (transition and Rajan-Takriti min-up/min-down
    pairs, the aggregated capacity link), per-(s,t) balance. Lazy families (the
    exact capacity link per (g, s, t) and the dispatch table's ramp,
    line-flow or surrogate rows per (s, r)) are appended to a_le/b_le only
    when violated; the masks cap_on (G, S, T) and row_on (S, R) mark the
    rows already in this pool.
    """

    def __init__(self, inst: TsucInstance, mats: GridMatrices | None = None):
        case, mode = inst.case, inst.mode
        if mode is TsucMode.SURROGATE:
            expected = tuple(case.feature_names())
            if tuple(inst.hyperplane.feature_names) != expected:
                raise FeatureMismatch(
                    "hyperplane features "
                    f"{list(inst.hyperplane.feature_names)} do not match case "
                    f"features {list(expected)}"
                )
        self.inst = inst
        self.mats = mats if mats is not None else build_matrices(case)
        G, S, T = case.n_gens, len(inst.scenarios), inst.horizon
        self.G, self.S, self.T = G, S, T
        K = self.K = inst.pwl_segments
        self.slopes, self.widths, self.pmin, fixed = dispatch_segments(case, K)

        self.n_u = G * T
        self.u_idx = np.arange(self.n_u).reshape(T, G).T
        self.d_idx = 3 * self.n_u + np.arange(S * T * G * K).reshape(
            S, T, G, K).transpose(2, 0, 1, 3)
        self.ncols = 3 * self.n_u + self.d_idx.size

        self.pmax = np.array([g.p_max for g in case.generators])

        # Scenario data: totals per (s, t) and the injection before dispatch,
        # an (N, S, T) view of scenario-major memory, the order in which the
        # flow rows' einsum sums over buses.
        load = np.array([s.loads(case) for s in inst.scenarios])  # (S, N, T)
        wind = np.array([s.wind_mw for s in inst.scenarios])  # (S, W, T)
        self.load_total, self.wind_total = load.sum(axis=1), wind.sum(axis=1)
        self.load, self.wind = load.transpose(1, 0, 2), wind.transpose(1, 0, 2)
        self.inj = self.mats.injection(self.load, self.wind)

        # Objective: no-load cost on u (sum(pi) = 1), start-up on y,
        # shut-down on z, expected segment cost on delta; delta <= width.
        gens = case.generators
        pi = np.array([s.probability for s in inst.scenarios])
        self.c = np.zeros(self.ncols)
        self.c[self.u_idx] = fixed[:, None]
        self.c[self.n_u + self.u_idx] = [[g.startup_cost] for g in gens]
        self.c[2 * self.n_u + self.u_idx] = [[g.shutdown_cost] for g in gens]
        self.c[self.d_idx] = pi[:, None, None] * self.slopes[:, None, None, :]
        self.lo = np.zeros(self.ncols)
        self.hi = np.ones(self.ncols)
        self.hi[self.d_idx] = self.widths[:, None, None, :]

        self._build_eager_rows()
        self._build_dispatch_rows()

        # Lazy pool: activated rows accumulate in a_le/b_le across the search.
        self.cap_on = np.zeros((G, S, T), dtype=bool)
        self.row_on = np.zeros((S, self.row_tol.size), dtype=bool)
        self.dispatch_start: LpStart | None = None  # see _dispatch_lp

    def _p_rows(self, coef: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Full-width rows coef[r] @ p_{s[r]} over (G, T) dispatch
        coefficients coef (R, G, T), via p = pmin*u + sum(delta)."""
        r = np.arange(s.size)[:, None, None]
        rows = np.zeros((s.size, self.ncols))
        rows[r, self.u_idx] = coef * self.pmin[:, None]
        d = self.d_idx[:, s].transpose(1, 0, 2, 3)  # (R, G, T, K)
        rows[r[..., None], d] = coef[..., None]
        return rows

    def _build_eager_rows(self):
        inst, case = self.inst, self.inst.case
        G, S, T, n_u, u = self.G, self.S, self.T, self.n_u, self.u_idx
        # 5*G*T rows: a transition pair and a Rajan-Takriti pair per (g, t),
        # then the aggregated capacity link per (g, t). In both pairs j = 0
        # acts on y and j = 1 on z, column (1 + j)*n_u + u.
        self.a_le = np.zeros((5 * n_u, self.ncols))
        self.b_le = np.zeros(5 * n_u)
        tr, rt = self.a_le[:4 * n_u].reshape(2, G, T, 2, self.ncols)
        b_tr, b_rt = self.b_le[:4 * n_u].reshape(2, G, T, 2)
        g, t, j = np.indices((G, T, 2))
        yz = (1 + j) * n_u + u[..., None]

        # Transition pair: u_t - u_{t-1} - y_t <= 0 and
        # u_{t-1} - u_t - z_t <= 0, with u_{-1} = u0 moved to the right.
        sign = np.array([1.0, -1.0])
        tr[g, t, j, u[..., None]] = sign
        tr[g, t, j, yz] = -1.0
        tr[g[:, 1:], t[:, 1:], j[:, 1:], u[:, :-1, None]] = -sign
        b_tr[:, 0] = np.asarray(inst.initial_status, dtype=float)[:, None] * sign

        # Rajan-Takriti pair: the starts of the last min_up hours
        # sum(y) - u_t <= 0 and the stops of the last min_down hours
        # sum(z) + u_t <= 1, both cut at hour 0.
        rt[g, t, j, u[..., None]] = 2 * j - 1
        b_rt[:] = j
        span = np.array([(gen.min_up, gen.min_down) for gen in case.generators])
        g, t, j, tau = np.indices((G, T, 2, T))
        rt[g, t, j, yz[g, tau, j]] = (t - span[g, j] < tau) & (tau <= t)

        # Aggregated capacity link per (g, t): the scenario sum of the exact
        # rows sum_k delta <= (pmax - pmin) u. The individual rows live in
        # the lazy pool; scenarios are statistically alike, so few of them
        # ever activate while the eager system stays S times smaller.
        agg = self.a_le[4 * n_u:].reshape(G, T, self.ncols)
        g, t = np.indices((G, T))
        agg[g[..., None], t[..., None],
            self.d_idx.transpose(0, 2, 1, 3).reshape(G, T, -1)] = 1.0
        agg[g, t, u] = -S * (self.pmax - self.pmin)[:, None]

        # System balance per (s, t): sum_g p = load_total - wind_total.
        hour = np.broadcast_to(np.eye(T)[:, None, :], (S, T, G, T))
        self.a_eq = self._p_rows(hour.reshape(-1, G, T),
                                 np.repeat(np.arange(S), T))
        self.b_eq = (self.load_total - self.wind_total).ravel()

    def _build_dispatch_rows(self):
        """One table of the per-scenario dispatch rows, shared by lazy
        separation and the dispatch LP.

        Row r reads coef[r] @ p_s <= rhs[s, r] over scenario s's hour-major
        dispatch p_s[t*G + g]: ramp-up and ramp-down for t >= 1, then the
        line-flow rows (full mode) or the learned halfspace (surrogate
        mode). It is violated beyond tol[r].
        """
        inst, case = self.inst, self.inst.case
        G, S, T = self.G, self.S, self.T
        # Ramps per (g, t >= 1): p_t - p_{t-1} <= RU, then p_{t-1} - p_t <= RD.
        unit = np.eye(T * G).reshape(T, G, T * G).transpose(1, 0, 2)
        up, down = unit[:, 1:], unit[:, :-1]
        ramp_mw = np.repeat(np.array(
            [(g.ramp_up, g.ramp_down) for g in case.generators]).T, T - 1)

        if inst.mode is TsucMode.FULL_NETWORK:
            # flow = PTDF (wind - load + gen injections) within +-limit.
            base = np.einsum("lb,bst->lst", self.mats.ptdf, self.inj)
            block, rhs = self.mats.flow_rows(case.line_limits[:, None, None],
                                             base)
            tol = FLOW_TOL_MW
        else:
            # Learned halfspace w @ [mu, sigma, p_t] + b >= 0, written as
            # -w_p @ p_t <= const + SURROGATE_TOL.
            h, W = inst.hyperplane, case.n_wind
            const = np.array([
                float(h.weights_physical[:W] @ scen.mu
                      + h.weights_physical[W:2 * W] @ scen.sigma
                      + h.bias_physical)
                for scen in inst.scenarios
            ])
            block = -h.weights_physical[None, 2 * W:]
            rhs = np.broadcast_to(const[:, None] + SURROGATE_TOL, (1, S, T))
            tol = 0.0
        # Block row r acts on one hour t at a time: table rows (r, t).
        R = block.shape[0]
        hourly = np.zeros((R, T, T, G))
        hourly[:, np.arange(T), np.arange(T)] = block[:, None]
        self.row_coef = np.concatenate([
            np.concatenate([up - down, down - up]).reshape(-1, T * G),
            hourly.reshape(R * T, T * G)])
        self.row_rhs = np.hstack([np.broadcast_to(ramp_mw, (S, ramp_mw.size)),
                                  rhs.transpose(1, 0, 2).reshape(S, R * T)])
        self.row_tol = np.repeat([FLOW_TOL_MW, tol], [ramp_mw.size, R * T])

    # -- lazy families -----------------------------------------------------

    def dispatch_of(self, x: np.ndarray) -> np.ndarray:
        """(G, S, T) dispatch implied by a column vector."""
        return (self.pmin[:, None, None] * x[self.u_idx][:, None, :]
                + x[self.d_idx].sum(axis=3))

    def add_violated_rows(self, x: np.ndarray) -> int:
        """Pool every violated lazy row not pooled yet; returns how many."""
        pg = self.dispatch_of(x)
        u = x[self.u_idx][:, None, :]

        # Exact capacity link: sum_k delta <= (pmax - pmin) u per (g, s, t).
        excess = (pg - self.pmin[:, None, None] * u
                  - (self.pmax - self.pmin)[:, None, None] * u)
        cap = (excess > FLOW_TOL_MW) & ~self.cap_on
        g, s, t = np.nonzero(cap)
        cap_a = np.zeros((g.size, self.ncols))
        i = np.arange(g.size)
        cap_a[i[:, None], self.d_idx[g, s, t]] = 1.0
        cap_a[i, self.u_idx[g, t]] = -(self.pmax - self.pmin)[g]

        # Dispatch-table rows, pooled in (scenario, row) order: the pool's
        # row order steers the simplex's tie-breaking.
        p = pg.transpose(1, 2, 0).reshape(self.S, -1)  # the table's order
        hit = (p @ self.row_coef.T - self.row_rhs > self.row_tol) & ~self.row_on
        s, r = np.nonzero(hit)
        coef = self.row_coef[r].reshape(-1, self.T, self.G).transpose(0, 2, 1)
        n_new = g.size + r.size
        if n_new:
            self.a_le = np.vstack([self.a_le, cap_a, self._p_rows(coef, s)])
            self.b_le = np.concatenate([self.b_le, np.zeros(g.size),
                                        self.row_rhs[s, r]])
        self.cap_on |= cap
        self.row_on |= hit
        return n_new

    def lp_problem(self, fix: tuple) -> LpProblem:
        """Node LP: eager rows plus the activated lazy rows, which are only
        ever appended. A fixing (j, v) pins binary column j by lo = hi = v,
        so a parent basis stays dual feasible for the child and the dual
        simplex reoptimizes it.
        """
        lo, hi = self.lo.copy(), self.hi.copy()
        for col, val in fix:
            lo[col] = hi[col] = val
        return LpProblem(c=self.c, a_eq=self.a_eq, b_eq=self.b_eq,
                         a_le=self.a_le, b_le=self.b_le, lo=lo, hi=hi)


def build_milp(inst: TsucInstance, mats: GridMatrices | None = None) -> _Milp:
    """Assemble the MILP; raises FeatureMismatch on a surrogate/case conflict."""
    return _Milp(inst, mats)


def _solve_node(
    milp: _Milp,
    fix: tuple,
    stats: SolveStats,
    base: LpSolution | None = None,
) -> LpSolution:
    """Dual-simplex LP bound with lazy rows grown until none are violated.

    ``base`` is a previously solved LP — the parent node or the previous
    lazy round — whose basis warm starts each solve; the root starts from
    the slack basis, dual feasible as all costs are >= 0 and lower bounds 0.
    """
    while True:
        n, m_eq, m_le = milp.ncols, milp.b_eq.size, milp.b_le.size
        start = (slack_start(n, m_eq, m_le) if base is None
                 else remap_start(base, n, m_eq, m_le))
        sol = solve_lp(milp.lp_problem(fix), start=start)
        stats.lp_solves += 1
        stats.lp_iterations += sol.iterations
        stats.cold_fallbacks += not sol.warm
        if sol.status is not LpStatus.OPTIMAL or not milp.add_violated_rows(sol.x):
            return sol
        base = sol


def _solution(
    milp: _Milp, status: TsucStatus, stats: SolveStats, objective: float,
    u: np.ndarray | None, p: np.ndarray | None,
) -> TsucSolution:
    """The result for a (G, T) schedule and its (G, S, T) dispatch, or for
    no schedule at all (u and p None)."""
    schedule = angles = None
    if u is not None:
        # Zero out numerical dust on offline units.
        p = np.where(u[:, None, :] == 0, 0.0, p)
        schedule = Schedule(u, *minimal_transitions(u, milp.inst.initial_status))
        angles = milp.mats.angles(milp.mats.injection(milp.load, milp.wind, p))
    return TsucSolution(status=status, schedule=schedule, dispatch=p,
                        angles=angles, objective=objective, stats=stats)


def _repair_schedule(case: SystemCase, u: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Make a rounded commitment satisfy min-up/min-down by committing more.

    Forward pass per unit: every switch-on holds for the (truncated) min-up
    window; a switch-off whose off-gap would be shorter than min-down is
    cancelled by keeping the unit running through the gap.
    """
    out = u.copy()
    G, T = out.shape
    for gi, gen in enumerate(case.generators):
        prev = int(u0[gi])
        t = 0
        while t < T:
            if out[gi, t] == 1 and prev == 0:
                end = min(t + gen.min_up, T)
                out[gi, t:end] = 1
                prev = 1
                t = end
            elif out[gi, t] == 0 and prev == 1:
                end = min(t + gen.min_down, T)
                if np.any(out[gi, t:end] == 1):
                    out[gi, t] = 1  # gap too short: stay on this hour
                    t += 1
                else:
                    prev = 0
                    t = end
            else:
                prev = int(out[gi, t])
                t += 1
    return out


def _heuristic_incumbent(
    milp: _Milp, x: np.ndarray, stats: SolveStats,
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Round-and-repair primal heuristic: an incumbent (cost, u, p).

    Rounds the relaxation's commitment, repairs the up/down logic, and
    prices the result with one exact dispatch LP per scenario, chained
    from the slack basis (``_dispatch_lp``). Returns (inf, None, None)
    when no candidate can be dispatched.
    """
    inst, case = milp.inst, milp.inst.case
    G, T = milp.G, milp.T
    u_frac = x[milp.u_idx]
    need = (milp.load_total - milp.wind_total).max(axis=0)  # (T,)

    def candidate(threshold: float) -> np.ndarray:
        u = (u_frac >= threshold).astype(int)
        # Capacity cover: the relaxation spreads commitment thinly, so
        # rounding can leave too little committed capacity. Commit extra
        # units per hour, by descending fractional value, until the
        # worst-scenario net load fits under the committed maximum output.
        for t in range(T):
            order = np.argsort(-u_frac[:, t])
            k = 0
            while float(milp.pmax @ u[:, t]) < need[t] and k < G:
                u[order[k], t] = 1
                k += 1
        return _repair_schedule(case, u, inst.initial_status)

    # Progressively more committed candidates, ending with all units on;
    # ramps or side constraints can reject sparse schedules that cover raw
    # capacity.
    tried: set = set()
    for threshold in (0.5, 0.2, 0.05, -np.inf):
        u = candidate(threshold)
        key = u.tobytes()
        if key in tried:
            continue
        tried.add(key)
        result = _price_schedule(milp, u, stats)
        if result is not None:
            return result
    return np.inf, None, None


def _price_schedule(
    milp: _Milp, u: np.ndarray, stats: SolveStats,
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Exact cost of a binary schedule, or None if it cannot be dispatched.
    The schedule must be logical (``schedule_is_logical``); this is not
    checked again."""
    inst, c, n_u, u_idx = milp.inst, milp.c, milp.n_u, milp.u_idx
    y, z = minimal_transitions(u, inst.initial_status)
    first = y * c[n_u + u_idx] + z * c[2 * n_u + u_idx] + u * c[u_idx]
    cost = float(sum(first.ravel()))  # term by term, g-major
    p_all = np.zeros((milp.G, milp.S, milp.T))
    for s in range(milp.S):
        feasible, c_s, p = _dispatch_lp(milp, u, s, stats)
        if not feasible:
            return None
        cost += c_s
        p_all[:, s, :] = p
    return cost, u, p_all


def solve_tsuc(
    inst: TsucInstance,
    *,
    gap_tol: float = DEFAULT_GAP_TOL,
    mats: GridMatrices | None = None,
) -> TsucSolution:
    """Best-bound branch-and-bound on the commitment binaries.

    Branches on the most fractional u, ties broken by (earlier hour, lower
    generator index); that order is the u column order, so the lowest column
    index wins ties.
    """
    if not gap_tol >= 0:
        raise ValueError(f"gap_tol must be >= 0, got {gap_tol}")
    t_start = time.perf_counter()
    stats = SolveStats()
    milp = build_milp(inst, mats)
    milp.dispatch_start = slack_start(milp.d_idx[:, 0].size, milp.T, milp.row_tol.size)

    counter = itertools.count()
    best = (np.inf, None, None)  # incumbent (objective, u, p)
    heap = []  # open fractional nodes (bound, tiebreak, fix, sol)
    pruned_min = np.inf  # smallest bound discarded by the cutoff

    def cutoff() -> float:
        if not np.isfinite(best[0]):
            return np.inf
        return best[0] - gap_tol * (1.0 + abs(best[0]))

    def settle(sol: LpSolution, fix: tuple) -> None:
        nonlocal best, pruned_min
        stats.nodes += 1
        if sol.status is not LpStatus.OPTIMAL:
            return
        uvals = sol.x[:milp.n_u]
        if np.abs(uvals - np.rint(uvals)).max() <= INTEGRALITY_TOL:
            if sol.objective < best[0]:
                u = np.rint(sol.x[milp.u_idx]).astype(int)
                best = (sol.objective, u, milp.dispatch_of(sol.x))
        elif sol.objective < cutoff():
            heapq.heappush(heap, (sol.objective, next(counter), fix, sol))
        else:
            pruned_min = min(pruned_min, sol.objective)

    root = _solve_node(milp, (), stats)
    if root.status is LpStatus.OPTIMAL:
        best = _heuristic_incumbent(milp, root.x, stats)
    settle(root, ())

    # The node limit is checked on the heap's top before it is popped, so
    # the best open node stays in the gap.
    while heap and heap[0][0] < cutoff() and stats.nodes < MAX_NODES:
        _, _, fix, sol = heapq.heappop(heap)
        uvals = sol.x[:milp.n_u]
        j = int(np.argmax(np.abs(uvals - np.rint(uvals))))
        for val in (0, 1):
            cfix = fix + ((j, val),)
            settle(_solve_node(milp, cfix, stats, sol), cfix)

    stats.wall_time = time.perf_counter() - t_start
    if heap and heap[0][0] < cutoff():
        status = TsucStatus.NODE_LIMIT
    else:
        status = TsucStatus.INFEASIBLE if best[1] is None else TsucStatus.OPTIMAL
    if best[1] is not None:
        lower = min(best[0], heap[0][0] if heap else np.inf, pruned_min)
        stats.gap = abs(best[0] - lower) / (1.0 + abs(best[0]))
    return _solution(milp, status, stats, *best)


def _dispatch_lp(
    milp: _Milp, u: np.ndarray, s: int, stats: SolveStats,
) -> tuple[bool, float, np.ndarray | None]:
    """Second-stage LP for one scenario under a fixed binary commitment.

    Columns are delta[(t*G + g)*K + k]; every row of the dispatch table
    applies, with the committed minimum output pmin*u on the right. All
    such LPs share A and c: each starts in the dual simplex from
    ``milp.dispatch_start``, the slack basis (set by ``solve_tsuc``) and
    then the last OPTIMAL one's basis, or with none (``brute_force_tsuc``)
    solves cold. A warm solve that ends neither OPTIMAL nor INFEASIBLE is
    solved again cold. The LPs and their iterations are counted in ``stats``.
    """
    G, T, K = milp.G, milp.T, milp.K
    base_p = (u.T * milp.pmin).ravel()  # hour-major, like the table
    prob = dispatch_problem(
        milp.slopes, milp.widths, u.T,
        (milp.load_total[s] - milp.wind_total[s]
         - base_p.reshape(T, G).sum(axis=1)),
        milp.row_coef, milp.row_rhs[s] - milp.row_coef @ base_p)
    sols = [solve_lp(prob, start=milp.dispatch_start)]
    if sols[0].warm and sols[0].status not in (LpStatus.OPTIMAL, LpStatus.INFEASIBLE):
        sols.append(solve_lp(prob))
    sol = sols[-1]
    stats.lp_solves += len(sols)
    stats.lp_iterations += sum(x.iterations for x in sols)
    stats.cold_fallbacks += milp.dispatch_start is not None and not sol.warm
    if sol.status is not LpStatus.OPTIMAL:
        return False, np.inf, None
    if milp.dispatch_start is not None:
        milp.dispatch_start = LpStart(sol.basis, sol.col_status)
    p = base_p + sol.x.reshape(T * G, K).sum(axis=1)
    pi = milp.inst.scenarios[s].probability
    return True, pi * float(sol.objective), p.reshape(T, G).T


def brute_force_tsuc(inst: TsucInstance) -> TsucSolution:
    """Exact optimum by enumerating all binary commitment paths.

    Filters paths violating the transition/min-up/min-down logic, dispatches
    the rest scenario by scenario, and keeps the cheapest total.
    """
    t_start = time.perf_counter()
    case = inst.case
    G, T = case.n_gens, inst.horizon
    if G * T > BRUTE_FORCE_MAX_BITS:
        raise TooLarge(f"brute force limited to G*T <= {BRUTE_FORCE_MAX_BITS}, "
                       f"got {G * T}")
    milp = build_milp(inst)
    stats = SolveStats()
    best = (np.inf, None, None)
    for bits in itertools.product((0, 1), repeat=G * T):
        u = np.array(bits, dtype=int).reshape(G, T)
        if not schedule_is_logical(case, u, inst.initial_status):
            continue
        stats.nodes += 1
        priced = _price_schedule(milp, u, stats)
        if priced is not None and priced[0] < best[0]:
            best = priced

    stats.wall_time = time.perf_counter() - t_start
    status = TsucStatus.INFEASIBLE if best[1] is None else TsucStatus.OPTIMAL
    return _solution(milp, status, stats, *best)
