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

from .errors import FeatureMismatch, TooLarge
from .grid import GridMatrices, SystemCase, build_matrices
from .pwl import PwlCost, pwl_cost
from .scenarios import Scenario
from .simplex import LpProblem, LpSolution, LpStatus, remap_start, solve_lp
from .svm import Hyperplane

SURROGATE_TOL = 1e-9
FLOW_TOL_MW = 1e-6
INTEGRALITY_TOL = 1e-6
DEFAULT_GAP_TOL = 1e-6
DEFAULT_NODE_LIMIT = 100_000
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
    pwl_segments: int = 8
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


@dataclass
class Schedule:
    u: np.ndarray  # (G, T) in {0,1}
    y: np.ndarray
    z: np.ndarray


@dataclass
class SolveStats:
    nodes: int = 0
    lp_solves: int = 0
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
    """Min-up/min-down windows (truncated at the horizon) on a binary path."""
    y, z = minimal_transitions(u, u0)
    horizon = u.shape[1]
    for gi, g in enumerate(case.generators):
        for t in range(horizon):
            if y[gi, t]:
                end = min(t + g.min_up, horizon)
                if not np.all(u[gi, t:end] == 1):
                    return False
            if z[gi, t]:
                end = min(t + g.min_down, horizon)
                if not np.all(u[gi, t:end] == 0):
                    return False
    return True


class _Milp:
    """Compact TSUC MILP: columns [u, y, z, delta], rows built on demand.

    Eager rows: transition logic, min-up/min-down, per-(s,t) system balance,
    and the capacity link sum(delta) <= (pmax - pmin) u. Lazy families (the
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
        self.curves: list[PwlCost] = [
            pwl_cost(g, inst.pwl_segments) for g in case.generators
        ]
        self.K = inst.pwl_segments

        # Column layout.
        self.n_u = G * T
        self.off_y = self.n_u
        self.off_z = 2 * self.n_u
        self.off_d = 3 * self.n_u
        self.ncols = self.off_d + G * S * T * self.K

        self.pmin = np.array([g.p_min for g in case.generators])
        self.pmax = np.array([g.p_max for g in case.generators])
        self.pmin_tg = np.tile(self.pmin, T)  # per hour-major dispatch entry
        self.widths = np.array([c.widths for c in self.curves])  # (G, K)
        self.slopes = np.array([c.slopes for c in self.curves])  # (G, K)

        # Scenario data.
        self.wind_total = np.array([
            s.wind_mw.sum(axis=0) for s in inst.scenarios
        ])  # (S, T)
        self.load_bus = np.array([
            s.loads(case) for s in inst.scenarios
        ])  # (S, N, T)
        self.load_total = self.load_bus.sum(axis=1)  # (S, T)
        self.wind_bus = np.zeros((S, case.n_buses, T))
        for si, s in enumerate(inst.scenarios):
            for wi, w in enumerate(case.wind_units):
                self.wind_bus[si, case.bus_index(w.bus)] += s.wind_mw[wi]
        self.gen_bus = np.array([case.bus_index(g.bus) for g in case.generators])

        self._build_objective()
        self._build_bounds()
        self._build_eager_rows()
        self._build_dispatch_rows()

        # Lazy pool: activated rows accumulate in a_le/b_le across the search.
        self.cap_on = np.zeros((G, S, T), dtype=bool)
        self.row_on = np.zeros((S, self.row_tol.size), dtype=bool)

    # -- column helpers ----------------------------------------------------

    def u_col(self, g: int, t: int) -> int:
        return t * self.G + g  # hour-major so ties prefer earlier hours

    def d_cols(self, g: int, s: int, t: int) -> slice:
        base = self.off_d + ((s * self.T + t) * self.G + g) * self.K
        return slice(base, base + self.K)

    def _build_objective(self):
        inst, case = self.inst, self.inst.case
        c = np.zeros(self.ncols)
        pi = np.array([s.probability for s in inst.scenarios])
        for g in range(self.G):
            gen = case.generators[g]
            fixed = gen.c0 + self.curves[g].base_value
            for t in range(self.T):
                c[self.u_col(g, t)] = fixed  # sum(pi) = 1
                c[self.off_y + self.u_col(g, t)] = gen.startup_cost
                c[self.off_z + self.u_col(g, t)] = gen.shutdown_cost
            for s in range(self.S):
                for t in range(self.T):
                    c[self.d_cols(g, s, t)] = pi[s] * self.curves[g].slopes
        self.c = c

    def _build_bounds(self):
        lo = np.zeros(self.ncols)
        hi = np.ones(self.ncols)
        for g in range(self.G):
            for s in range(self.S):
                for t in range(self.T):
                    hi[self.d_cols(g, s, t)] = self.widths[g]
        self.lo, self.hi = lo, hi

    def _p_row(self, coef: np.ndarray, s: int) -> np.ndarray:
        """Full-width row of coef @ p_s via p = pmin*u + sum(delta)."""
        row = np.zeros(self.ncols)
        row[:self.n_u] = coef * self.pmin_tg
        base = self.off_d + s * self.n_u * self.K
        row[base:base + self.n_u * self.K] = np.repeat(coef, self.K)
        return row

    def _build_eager_rows(self):
        inst, case = self.inst, self.inst.case
        G, S, T, K = self.G, self.S, self.T, self.K
        u0 = inst.initial_status
        a_le, b_le = [], []

        # Transition logic: u_t - u_{t-1} - y_t <= 0 and u_{t-1} - u_t - z_t <= 0.
        for g in range(G):
            for t in range(T):
                row = np.zeros(self.ncols)
                row[self.u_col(g, t)] = 1.0
                row[self.off_y + self.u_col(g, t)] = -1.0
                rhs = 0.0
                if t == 0:
                    rhs = float(u0[g])
                else:
                    row[self.u_col(g, t - 1)] = -1.0
                a_le.append(row)
                b_le.append(rhs)

                row = np.zeros(self.ncols)
                row[self.u_col(g, t)] = -1.0
                row[self.off_z + self.u_col(g, t)] = -1.0
                rhs = 0.0
                if t == 0:
                    rhs = -float(u0[g])
                else:
                    row[self.u_col(g, t - 1)] = 1.0
                a_le.append(row)
                b_le.append(rhs)

        # Min-up: y_t - u_tau <= 0; min-down: z_t + u_tau <= 1.
        for g in range(G):
            gen = case.generators[g]
            for t in range(T):
                for tau in range(t, min(t + gen.min_up, T)):
                    row = np.zeros(self.ncols)
                    row[self.off_y + self.u_col(g, t)] = 1.0
                    row[self.u_col(g, tau)] -= 1.0
                    a_le.append(row)
                    b_le.append(0.0)
                for tau in range(t, min(t + gen.min_down, T)):
                    row = np.zeros(self.ncols)
                    row[self.off_z + self.u_col(g, t)] = 1.0
                    row[self.u_col(g, tau)] += 1.0
                    a_le.append(row)
                    b_le.append(1.0)

        # Aggregated capacity link per (g, t): the scenario sum of the exact
        # rows sum_k delta <= (pmax - pmin) u. The individual rows live in
        # the lazy pool; scenarios are statistically alike, so few of them
        # ever activate while the eager system stays S times smaller.
        for g in range(G):
            for t in range(T):
                row = np.zeros(self.ncols)
                for s in range(S):
                    row[self.d_cols(g, s, t)] = 1.0
                row[self.u_col(g, t)] = -S * (self.pmax[g] - self.pmin[g])
                a_le.append(row)
                b_le.append(0.0)

        # System balance per (s, t): sum_g p = load_total - wind_total.
        a_eq, b_eq = [], []
        for s in range(S):
            for t in range(T):
                hour = np.zeros(self.n_u)
                hour[t * G:(t + 1) * G] = 1.0
                a_eq.append(self._p_row(hour, s))
                b_eq.append(self.load_total[s, t] - self.wind_total[s, t])

        self.a_le = np.array(a_le)
        self.b_le = np.array(b_le)
        self.a_eq = np.array(a_eq)
        self.b_eq = np.array(b_eq)

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
        coef, rhs, tol = [], [], []

        def add(c, b, eps):
            coef.append(c.ravel())
            rhs.append(np.broadcast_to(b, (S,)))
            tol.append(eps)

        # Ramps: p_t - p_{t-1} <= RU; p_{t-1} - p_t <= RD.
        for sign in (1.0, -1.0):
            for g, gen in enumerate(case.generators):
                limit = gen.ramp_up if sign > 0 else gen.ramp_down
                for t in range(1, T):
                    c = np.zeros((T, G))
                    c[t, g], c[t - 1, g] = sign, -sign
                    add(c, float(limit), FLOW_TOL_MW)

        if inst.mode is TsucMode.FULL_NETWORK:
            # sign * flow <= limit, flow = PTDF (wind - load + gen injections).
            base = np.einsum("lb,sbt->lst", self.mats.ptdf,
                             self.wind_bus - self.load_bus)
            gcoef = self.mats.ptdf[:, self.gen_bus]  # (L, G)
            for sign in (1.0, -1.0):
                for li, limit in enumerate(case.line_limits):
                    for t in range(T):
                        c = np.zeros((T, G))
                        c[t] = sign * gcoef[li]
                        add(c, limit - sign * base[li, :, t], FLOW_TOL_MW)
        else:
            # Learned halfspace w @ [mu, sigma, p_t] + b >= 0, written as
            # -w_p @ p_t <= const + SURROGATE_TOL.
            h = inst.hyperplane
            W = case.n_wind
            w_p = h.weights_physical[2 * W:]
            const = np.array([
                float(h.weights_physical[:W] @ scen.mu
                      + h.weights_physical[W:2 * W] @ scen.sigma
                      + h.bias_physical)
                for scen in inst.scenarios
            ])
            for t in range(T):
                c = np.zeros((T, G))
                c[t] = -w_p
                add(c, const + SURROGATE_TOL, 0.0)

        self.row_coef = np.array(coef).reshape(-1, T * G)
        self.row_rhs = np.array(rhs).reshape(-1, S).T  # (S, R)
        self.row_tol = np.array(tol)

    # -- lazy families -----------------------------------------------------

    def _p(self, x: np.ndarray) -> np.ndarray:
        """(S, T*G) hour-major dispatch implied by a column vector."""
        d = x[self.off_d:].reshape(self.S, self.n_u, self.K).sum(axis=2)
        return self.pmin_tg * x[:self.n_u] + d

    def dispatch_of(self, x: np.ndarray) -> np.ndarray:
        """(G, S, T) dispatch implied by a column vector."""
        return self._p(x).reshape(self.S, self.T, self.G).transpose(2, 0, 1)

    def add_violated_rows(self, x: np.ndarray) -> int:
        """Pool every violated lazy row not pooled yet; returns how many."""
        p = self._p(x)
        new_a, new_b = [], []

        # Exact capacity link: sum_k delta <= (pmax - pmin) u per (g, s, t).
        pg = p.reshape(self.S, self.T, self.G).transpose(2, 0, 1)
        u = x[:self.n_u].reshape(self.T, self.G).T
        excess = (pg - self.pmin[:, None, None] * u[:, None, :]
                  - (self.pmax - self.pmin)[:, None, None] * u[:, None, :])
        cap = (excess > FLOW_TOL_MW) & ~self.cap_on
        for g, s, t in zip(*np.nonzero(cap)):
            row = np.zeros(self.ncols)
            row[self.d_cols(g, s, t)] = 1.0
            row[self.u_col(g, t)] = -(self.pmax[g] - self.pmin[g])
            new_a.append(row)
            new_b.append(0.0)

        # Dispatch-table rows, pooled in (scenario, row) order: the pool's
        # row order steers the simplex's tie-breaking.
        hit = (p @ self.row_coef.T - self.row_rhs > self.row_tol) & ~self.row_on
        for s, r in zip(*np.nonzero(hit)):
            new_a.append(self._p_row(self.row_coef[r], s))
            new_b.append(self.row_rhs[s, r])
        if new_a:
            self.a_le = np.vstack([self.a_le, new_a])
            self.b_le = np.concatenate([self.b_le, new_b])
        self.cap_on |= cap
        self.row_on |= hit
        return len(new_b)

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
    """LP bound with lazy rows grown until none are violated.

    ``base`` is a previously solved LP — the parent node or the previous
    lazy round — whose basis warm starts each solve.
    """
    while True:
        start = None
        if base is not None:
            start = remap_start(base, milp.ncols, milp.b_eq.size, milp.b_le.size)
        sol = solve_lp(milp.lp_problem(fix), start=start)
        stats.lp_solves += 1
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
        inj = milp.wind_bus - milp.load_bus  # (S, N, T)
        for g in range(milp.G):
            inj[:, milp.gen_bus[g]] += p[g]
        n = inj.shape[1]
        angles = milp.mats.angles(inj.transpose(1, 0, 2).reshape(n, -1),
                                  milp.inst.case.base_mva)
        angles = angles.reshape(n, milp.S, milp.T)
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
    prices the result with one exact dispatch LP per scenario. Returns
    (inf, None, None) when no candidate can be dispatched.
    """
    inst, case = milp.inst, milp.inst.case
    G, T = milp.G, milp.T
    u_frac = x[:milp.n_u].reshape(T, G).T
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
    """Exact cost of a binary schedule, or None if it cannot be dispatched."""
    inst, case = milp.inst, milp.inst.case
    G, T = milp.G, milp.T
    if not schedule_is_logical(case, u, inst.initial_status):
        return None
    y, z = minimal_transitions(u, inst.initial_status)
    cost = float(sum(
        y[g, t] * case.generators[g].startup_cost
        + z[g, t] * case.generators[g].shutdown_cost
        + u[g, t] * (case.generators[g].c0 + milp.curves[g].base_value)
        for g in range(G) for t in range(T)
    ))
    p_all = np.zeros((G, milp.S, T))
    for s in range(milp.S):
        stats.lp_solves += 1
        feasible, c_s, p = _dispatch_lp(milp, u, s)
        if not feasible:
            return None
        cost += c_s
        p_all[:, s, :] = p
    return cost, u, p_all


def solve_tsuc(
    inst: TsucInstance,
    *,
    gap_tol: float = DEFAULT_GAP_TOL,
    node_limit: int = DEFAULT_NODE_LIMIT,
    mats: GridMatrices | None = None,
) -> TsucSolution:
    """Best-bound branch-and-bound on the commitment binaries.

    Branches on the most fractional u, ties broken by (earlier hour, lower
    generator index); that order is the u column order, so the lowest column
    index wins ties.
    """
    t_start = time.perf_counter()
    stats = SolveStats()
    milp = build_milp(inst, mats)

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
                u = np.rint(uvals.reshape(milp.T, milp.G).T).astype(int)
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
    while heap and heap[0][0] < cutoff() and stats.nodes < node_limit:
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
    milp: _Milp, u: np.ndarray, s: int,
) -> tuple[bool, float, np.ndarray | None]:
    """Second-stage LP for one scenario under a fixed binary commitment.

    Columns are delta[(t*G + g)*K + k]; every row of the dispatch table
    applies, with the committed minimum output pmin*u on the right.
    """
    G, T, K = milp.G, milp.T, milp.K
    ut = u.T.ravel()  # hour-major, like the table
    base_p = milp.pmin_tg * ut
    lp = LpProblem(
        c=np.tile(milp.slopes.ravel(), T),
        a_eq=np.repeat(np.eye(T), G * K, axis=1),
        b_eq=(milp.load_total[s] - milp.wind_total[s]
              - base_p.reshape(T, G).sum(axis=1)),
        a_le=np.repeat(milp.row_coef, K, axis=1),
        b_le=milp.row_rhs[s] - milp.row_coef @ base_p,
        lo=np.zeros(T * G * K),
        hi=np.tile(milp.widths.ravel(), T) * np.repeat(ut, K))
    sol = solve_lp(lp)
    if sol.status is not LpStatus.OPTIMAL:
        return False, np.inf, None
    p = base_p + sol.x.reshape(T * G, K).sum(axis=1)
    pi = milp.inst.scenarios[s].probability
    return True, pi * float(sol.objective), p.reshape(T, G).T


def brute_force_tsuc(inst: TsucInstance, mats: GridMatrices | None = None) -> TsucSolution:
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
    milp = build_milp(inst, mats)
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
