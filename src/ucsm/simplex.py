"""Bounded-variable revised simplex solver: two-phase primal for cold
starts, bounded dual simplex for warm starts.

Dense implementation with an explicitly maintained basis inverse (rank-1
eta updates, periodic refactorization by ``np.linalg.inv``). A cold solve
runs phase 1 from a crash basis of slacks and artificials, then phase 2. A
warm solve factors the given basis, reoptimizes it with the dual simplex
(which needs a dual feasible basis, as an optimal one stays after rows are
appended or bounds tightened) and finishes with phase 2 as cleanup. Both
use a Dantzig-style rule and fall back to Bland's rule after 2*(m+n)
iterations to guarantee termination on cycling instances.

Bounds with magnitude >= INF_BOUND are treated as unbounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

INF_BOUND = 1e18
OPT_TOL = 1e-9     # reduced-cost tolerance, relative to the cost scale
FEAS_TOL = 1e-9    # bound-violation tolerance, relative to the rhs scale
PIVOT_TOL = 1e-10  # smallest usable pivot-column entry in a ratio test
ORACLE_TOL = 1e-9  # brute_force_lp's vertex tolerance, relative to the rhs scale

# Variable states.
_AT_LO = 0
_AT_HI = 1
_FREE = 2
_BASIC = 3


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class LpProblem:
    """min c @ x  s.t.  a_eq @ x = b_eq,  a_le @ x <= b_le,  lo <= x <= hi."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_le: np.ndarray
    b_le: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = self.c.size
        self.a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n)
        self.a_le = np.asarray(self.a_le, dtype=float).reshape(-1, n)
        self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        self.b_le = np.atleast_1d(np.asarray(self.b_le, dtype=float))
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if self.b_eq.size != self.a_eq.shape[0]:
            raise DimensionMismatch("b_eq length != a_eq rows")
        if self.b_le.size != self.a_le.shape[0]:
            raise DimensionMismatch("b_le length != a_le rows")
        if self.lo.size != n or self.hi.size != n:
            raise DimensionMismatch("bound vectors must match objective length")
        if np.any(self.lo > self.hi):
            raise DimensionMismatch("lo > hi for some variable")

    @property
    def n(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray
    duals: np.ndarray  # one multiplier per row, eq rows first
    objective: float
    iterations: int
    dual_objective: float = 0.0
    basis: np.ndarray | None = None       # basic column per row
    col_status: np.ndarray | None = None  # per-column state codes


@dataclass
class LpStart:
    """Advanced (warm) starting point for ``solve_lp``.

    ``basis[i]`` is the basic column for row i in the new problem's column
    numbering; ``col_status`` covers every column (structural, slack,
    artificial). The basis is factored as given, with the artificials fixed
    at zero, and reoptimized by the dual simplex, so it should be dual
    feasible: an optimal basis stays so after rows are appended with their
    slacks basic or bounds are tightened. Falls back to a cold start unless
    it is a basis that factors with every nonbasic column at a finite bound.
    """

    basis: np.ndarray
    col_status: np.ndarray


@dataclass
class _Tableau:
    """Mutable simplex state over the standard-form system A x = b."""

    a: np.ndarray        # (m, n) structural columns
    b: np.ndarray
    m_eq: int
    lo: np.ndarray       # bounds for structural + slack + artificial columns
    hi: np.ndarray
    basis: np.ndarray = field(default=None)
    status: np.ndarray = field(default=None)
    xval: np.ndarray = field(default=None)
    xb: np.ndarray = field(default=None)
    binv: np.ndarray = field(default=None)
    art_sign: np.ndarray = field(default=None)
    since_refactor: int = 0  # pivots since the last factorization

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n_struct(self) -> int:
        return self.a.shape[1]

    @property
    def n_slack(self) -> int:
        return self.m - self.m_eq

    @property
    def n_cols(self) -> int:
        return self.n_struct + self.n_slack + self.m

    def col(self, j: int) -> np.ndarray:
        ns, nk = self.n_struct, self.n_slack
        if j < ns:
            return self.a[:, j]
        e = np.zeros(self.m)
        if j < ns + nk:
            e[self.m_eq + (j - ns)] = 1.0
        else:
            i = j - ns - nk
            e[i] = self.art_sign[i]
        return e

    def nonbasic_rhs(self) -> np.ndarray:
        """b minus the contribution of all nonbasic columns at their values."""
        v = self.xval.copy()
        v[self.basis] = 0.0
        ns, nk = self.n_struct, self.n_slack
        contrib = self.a @ v[:ns]
        contrib[self.m_eq:] += v[ns:ns + nk]
        contrib += self.art_sign * v[ns + nk:]
        return self.b - contrib

    def refactor(self):
        m, ns, nk = self.m, self.n_struct, self.n_slack
        bmat = np.zeros((m, m))
        js = self.basis
        pos = np.arange(m)
        struct = js < ns
        if np.any(struct):
            bmat[:, pos[struct]] = self.a[:, js[struct]]
        slack = (js >= ns) & (js < ns + nk)
        if np.any(slack):
            bmat[self.m_eq + (js[slack] - ns), pos[slack]] = 1.0
        art = js >= ns + nk
        if np.any(art):
            rows = js[art] - ns - nk
            bmat[rows, pos[art]] = self.art_sign[rows]
        try:
            self.binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix("basis matrix singular at refactorization") from exc
        self.xb = self.binv @ self.nonbasic_rhs()
        self.xval[self.basis] = self.xb
        self.since_refactor = 0

    def pivot(self, r: int, j: int, w: np.ndarray, theta: float,
              leave_state: int):
        """Basis exchange shared by the primal and the dual simplex: column
        j (with w = B^-1 a_j) moves by theta and enters on row r; the
        leaving column goes nonbasic in ``leave_state``. Refactors every
        100 exchanges."""
        self.xb -= theta * w
        old = self.basis[r]
        self.status[old] = leave_state
        self.xval[old] = _nonbasic_value(self.lo[old], self.hi[old],
                                         leave_state)
        self.basis[r] = j
        self.status[j] = _BASIC
        self.xb[r] = self.xval[j] + theta

        # Eta update of the inverse.
        self.binv[r, :] /= w[r]
        others = np.arange(self.m) != r
        self.binv[others, :] -= np.outer(w[others], self.binv[r, :])
        self.xval[self.basis] = self.xb
        self.since_refactor += 1
        if self.since_refactor >= 100:
            self.refactor()


def _install_warm_start(t: _Tableau, start: LpStart) -> bool:
    """Adopt an advanced basis with every nonbasic column at the bound its
    state names; False if it is not a basis or cannot be factored."""
    basis = start.basis.astype(int)
    cols = np.unique(basis)
    if cols.size != t.m or cols[0] < 0 or cols[-1] >= t.n_cols:
        return False
    status = start.col_status.astype(np.int8)
    status[basis] = _BASIC
    xval = np.where(status == _AT_LO, t.lo,
                    np.where(status == _AT_HI, t.hi, 0.0))
    if not np.all(np.isfinite(xval)):
        return False
    t.basis, t.status, t.xval = basis, status, xval
    try:
        t.refactor()
    except SingularMatrix:
        return False
    return True


def _nonbasic_value(lo: float, hi: float, state: int) -> float:
    if state == _AT_LO:
        return lo
    if state == _AT_HI:
        return hi
    return 0.0


def solve_lp(
    problem: LpProblem,
    *,
    max_iter: int | None = None,
    start: LpStart | None = None,
) -> LpSolution:
    """Solve a bounded-variable LP: two-phase primal simplex from a crash basis,
    or dual simplex plus a primal cleanup from the advanced basis ``start``."""
    n = problem.n
    m_eq = problem.a_eq.shape[0]
    m_le = problem.a_le.shape[0]
    m = m_eq + m_le

    a = np.vstack([problem.a_eq, problem.a_le])
    b = np.concatenate([problem.b_eq, problem.b_le])

    lo = np.concatenate([problem.lo, np.zeros(m_le), np.zeros(m)])
    hi = np.concatenate([problem.hi, np.full(m_le, np.inf), np.full(m, np.inf)])
    lo[lo <= -INF_BOUND] = -np.inf
    hi[hi >= INF_BOUND] = np.inf

    t = _Tableau(a=a, b=b, m_eq=m_eq, lo=lo, hi=hi, art_sign=np.ones(m))
    ns, nk = n, m_le
    ncols = t.n_cols

    warm = (start is not None and start.basis.size == m
            and start.col_status.size == ncols and _install_warm_start(t, start))
    if warm:
        t.hi[ns + nk:] = 0.0  # artificials stay fixed at zero
    else:
        # Nonbasic start: nearest finite bound, free variables at zero.
        t.status = np.where(
            np.isfinite(lo), _AT_LO, np.where(np.isfinite(hi), _AT_HI, _FREE)
        ).astype(np.int8)
        t.status[ns + nk:] = _AT_LO
        t.xval = np.where(t.status == _AT_LO, lo,
                          np.where(t.status == _AT_HI, hi, 0.0))
        t.xval[~np.isfinite(t.xval)] = 0.0
        # Crash basis: slack basic on every inequality row whose slack start
        # is feasible, artificial elsewhere. Cuts phase-1 work to the
        # infeasible rows.
        t.basis = np.arange(ns + nk, ncols)
        r = t.nonbasic_rhs()
        for i in range(m):
            if i >= m_eq and r[i] >= 0:
                t.basis[i] = ns + (i - m_eq)
            else:
                t.art_sign[i] = 1.0 if r[i] >= 0 else -1.0
        t.binv = np.diag(np.where(t.basis >= ns + nk, t.art_sign, 1.0))
        t.xb = np.abs(r)
        t.status[t.basis] = _BASIC
        t.xval[t.basis] = t.xb

    if max_iter is None:
        max_iter = 200 * (m + ns) + 2000
    bland_after = 2 * (m + ns)

    c_phase1 = np.zeros(ncols)
    c_phase1[ns + nk:] = 1.0
    c_phase2 = np.zeros(ncols)
    c_phase2[:ns] = problem.c

    iters = 0
    movable = hi[:ns + nk] > lo[:ns + nk]  # fixed columns never enter
    c_scale = 1.0 + float(np.max(np.abs(problem.c))) if n else 1.0
    b_scale = 1.0 + (float(np.max(np.abs(b))) if m else 0.0)

    def price(cvec):
        y = cvec[t.basis] @ t.binv
        d = np.empty(ns + nk)
        d[:ns] = cvec[:ns] - y @ t.a
        d[ns:] = cvec[ns:ns + nk] - y[m_eq:]
        return y, d

    def run_phase(cvec, phase: int):
        nonlocal iters
        dtol = OPT_TOL * (c_scale if phase == 2 else b_scale)
        t.since_refactor = 0
        while True:
            if iters >= max_iter:
                return "iteration_limit"
            y, d = price(cvec)
            sl = t.status[:ns + nk]
            eligible = (
                ((sl == _AT_LO) & (d < -dtol) & movable)
                | ((sl == _AT_HI) & (d > dtol) & movable)
                | ((sl == _FREE) & (np.abs(d) > dtol))
            )
            idx = np.nonzero(eligible)[0]
            if idx.size == 0:
                return "optimal"
            if iters > bland_after:
                j = int(idx[0])
            else:
                j = int(idx[np.argmax(np.abs(d[idx]))])
            iters += 1

            sj = t.status[j]
            direction = 1.0 if (sj == _AT_LO or (sj == _FREE and d[j] < 0)) else -1.0
            w = t.binv @ t.col(j)

            # Ratio test: basic variables hitting their bounds, plus a
            # possible bound flip of the entering variable itself.
            dw = direction * w
            lob = t.lo[t.basis]
            hib = t.hi[t.basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                down = np.where(dw > PIVOT_TOL, (t.xb - lob) / dw, np.inf)
                up = np.where(dw < -PIVOT_TOL, (t.xb - hib) / dw, np.inf)
            lim = np.minimum(down, up)
            lim[~np.isfinite(lim)] = np.inf
            lim = np.maximum(lim, 0.0)

            flip = np.inf
            if np.isfinite(t.lo[j]) and np.isfinite(t.hi[j]):
                flip = t.hi[j] - t.lo[j]

            # Select a leaving row whose pivot element is usable. Dividing
            # by a negligible pivot destroys the factorization: if the
            # inverse is stale the value may be drift, so refactor and
            # redo the iteration; under a fresh factorization the row truly
            # cannot block the entering variable, so drop it and rerun the
            # ratio test.
            stale = False
            step = np.inf
            leave = -1
            while lim.size:
                kmin = float(np.min(lim))
                if not np.isfinite(kmin):
                    break
                if iters > bland_after:
                    ties = np.nonzero(lim <= kmin + 1e-12)[0]
                    cand = int(ties[np.argmin(t.basis[ties])])
                else:
                    ties = np.nonzero(lim <= kmin * (1 + 1e-9) + 1e-12)[0]
                    cand = int(ties[np.argmax(np.abs(dw[ties]))])
                if abs(w[cand]) >= 1e-9:
                    leave = cand
                    step = float(lim[cand])
                    break
                if t.since_refactor > 0:
                    stale = True
                    break
                lim[cand] = np.inf
            if stale:
                t.refactor()
                iters -= 1
                continue

            if min(step, flip) == np.inf:
                return "unbounded"

            if flip < step - 1e-15 or leave < 0:
                # Bound flip: entering variable moves to its other bound.
                t.xb -= flip * dw
                t.xval[t.basis] = t.xb
                t.status[j] = _AT_HI if sj == _AT_LO else _AT_LO
                t.xval[j] = _nonbasic_value(t.lo[j], t.hi[j], t.status[j])
                continue

            # dw > 0 means the leaving basic variable decreased onto its
            # lower bound; dw < 0 means it rose onto its upper bound.
            t.pivot(leave, j, w, direction * step,
                    _AT_LO if dw[leave] > 0 else _AT_HI)

    def assemble(st: LpStatus) -> LpSolution:
        y, d = price(c_phase2)
        x = t.xval[:n].copy()
        obj = float(problem.c @ x)
        finite = np.isfinite(t.xval[:ns + nk]) & (t.status[:ns + nk] != _BASIC)
        dual_obj = float(y @ b + d[finite] @ t.xval[:ns + nk][finite])
        return LpSolution(st, x, y.copy(), obj, iters, dual_obj,
                          basis=t.basis.copy(), col_status=t.status.copy())

    def dual_phase():
        """Bounded dual simplex from a dual feasible basis, until the basis
        is primal feasible. The leaving row has the largest bound
        violation; a row that no nonbasic column can move toward its bound
        certifies infeasibility."""
        nonlocal iters
        while True:
            below = t.lo[t.basis] - t.xb
            viol = np.maximum(below, t.xb - t.hi[t.basis])
            bad = np.nonzero(viol > FEAS_TOL * b_scale)[0]
            if bad.size == 0:
                return "optimal"
            if iters >= max_iter:
                return "iteration_limit"
            bland = iters > bland_after
            r = int(bad[np.argmin(t.basis[bad])] if bland
                    else bad[np.argmax(viol[bad])])
            rises = below[r] > 0  # x_r must rise to its lower bound
            # Row r of B^-1 [A | I]: x_r falls by alpha_j per unit rise of
            # nonbasic column j, so g_j is its move toward the bound.
            alpha = np.empty(ns + nk)
            alpha[:ns] = t.binv[r] @ t.a
            alpha[ns:] = t.binv[r, m_eq:]
            g = -alpha if rises else alpha
            sl = t.status[:ns + nk]
            eligible = movable & (
                ((sl == _AT_LO) & (g > PIVOT_TOL))
                | ((sl == _AT_HI) & (g < -PIVOT_TOL))
                | ((sl == _FREE) & (np.abs(g) > PIVOT_TOL))
            )
            idx = np.nonzero(eligible)[0]
            if idx.size == 0:
                if t.since_refactor == 0:
                    return "infeasible"
                t.refactor()  # confirm the certificate on a fresh inverse
                continue
            # Dual ratio test: the column whose reduced cost reaches zero
            # first; ties go to the largest pivot.
            _, d = price(c_phase2)
            ratio = np.abs(d[idx] / alpha[idx])
            ties = idx[ratio <= ratio.min() * (1 + 1e-9) + 1e-12]
            q = int(ties[0] if bland else ties[np.argmax(np.abs(alpha[ties]))])
            iters += 1

            w = t.binv @ t.col(q)
            target = t.lo[t.basis[r]] if rises else t.hi[t.basis[r]]
            t.pivot(r, q, w, (t.xb[r] - target) / w[r],
                    _AT_LO if rises else _AT_HI)

    if warm:
        out = dual_phase()
    else:
        out = run_phase(c_phase1, 1)
        if (out != "iteration_limit"
                and float(c_phase1[t.basis] @ t.xb) > FEAS_TOL * b_scale):
            out = "infeasible"
    if out == "iteration_limit":
        return assemble(LpStatus.ITERATION_LIMIT)
    if out == "infeasible":
        return assemble(LpStatus.INFEASIBLE)

    if not warm:
        # Drive remaining artificials out of the basis (the refactorization
        # rebuilds the inverse and the basic values); redundant rows keep a
        # fixed artificial pinned at zero.
        art_start = ns + nk
        for r_i in range(m):
            if t.basis[r_i] < art_start:
                continue
            for j in range(ns + nk):
                if t.status[j] == _BASIC:
                    continue
                if abs(t.binv[r_i] @ t.col(j)) > 1e-7:
                    old = t.basis[r_i]
                    t.basis[r_i] = j
                    t.status[old] = _AT_LO
                    t.xval[old] = 0.0
                    t.status[j] = _BASIC
                    t.refactor()
                    break
        t.hi[art_start:] = 0.0

    out = run_phase(c_phase2, 2)
    if out == "iteration_limit":
        return assemble(LpStatus.ITERATION_LIMIT)
    if out == "unbounded":
        sol = assemble(LpStatus.UNBOUNDED)
        sol.objective = -np.inf
        return sol
    return assemble(LpStatus.OPTIMAL)


def remap_start(sol: LpSolution, n: int, m_eq: int, m_le: int) -> LpStart | None:
    """Carry a solved basis over to the same problem with ``<=`` rows
    appended, ``m_le`` of them in all; the bounds may differ.

    Each appended row gets its slack as the basic variable. The artificial
    columns follow the slacks, so they shift past the new ones.
    """
    if sol.basis is None or sol.col_status is None:
        return None
    extra = m_le - (sol.basis.size - m_eq)
    art = n + m_le - extra  # first artificial column of the solved problem
    basis = np.where(sol.basis >= art, sol.basis + extra, sol.basis)
    col_status = np.concatenate([
        sol.col_status[:art], np.full(extra, _BASIC, dtype=np.int8),
        sol.col_status[art:], np.full(extra, _AT_LO, dtype=np.int8),
    ])
    return LpStart(basis=np.concatenate([basis, art + np.arange(extra)]),
                   col_status=col_status)


def brute_force_lp(problem: LpProblem) -> LpSolution:
    """Vertex-enumeration oracle for small LPs.

    Enumerates every choice of n active constraints (equality rows always
    active) among inequality rows and finite bounds, solves the square
    system, and keeps the best feasible vertex. Independent of the simplex
    path; intended for problems with n <= ~8.
    """
    n = problem.n
    if n > 10:
        raise DimensionMismatch("vertex oracle limited to n <= 10")
    rows = [(problem.a_eq[i], problem.b_eq[i]) for i in range(problem.a_eq.shape[0])]
    cands = []
    for i in range(problem.a_le.shape[0]):
        cands.append((problem.a_le[i], problem.b_le[i]))
    for j in range(n):
        e = np.zeros(n)
        if problem.lo[j] > -INF_BOUND:
            e_lo = e.copy()
            e_lo[j] = 1.0
            cands.append((e_lo, problem.lo[j]))
        if problem.hi[j] < INF_BOUND:
            e_hi = e.copy()
            e_hi[j] = 1.0
            cands.append((e_hi, problem.hi[j]))

    need = n - len(rows)
    best_x, best_obj = None, np.inf
    tol = ORACLE_TOL * (1.0 + max(
        float(np.max(np.abs(problem.b_le))) if problem.b_le.size else 0.0,
        float(np.max(np.abs(problem.b_eq))) if problem.b_eq.size else 0.0,
    ))
    for combo in itertools.combinations(range(len(cands)), max(need, 0)):
        amat = np.array([r for r, _ in rows] + [cands[k][0] for k in combo])
        bvec = np.array([v for _, v in rows] + [cands[k][1] for k in combo])
        try:
            x = np.linalg.solve(amat, bvec)
        except np.linalg.LinAlgError:
            continue
        if np.linalg.matrix_rank(amat) < n:
            continue
        feasible = (
            np.all(problem.a_le @ x <= problem.b_le + tol)
            and (problem.a_eq.shape[0] == 0
                 or np.all(np.abs(problem.a_eq @ x - problem.b_eq) <= tol))
            and np.all(x >= np.maximum(problem.lo, -INF_BOUND) - tol)
            and np.all(x <= np.minimum(problem.hi, INF_BOUND) + tol)
        )
        if feasible:
            obj = float(problem.c @ x)
            if obj < best_obj - 0.0:
                best_obj, best_x = obj, x
    if best_x is None:
        return LpSolution(LpStatus.INFEASIBLE, np.zeros(n), np.zeros(0), np.inf, 0)
    return LpSolution(LpStatus.OPTIMAL, best_x, np.zeros(0), best_obj, 0, best_obj)
