"""Bounded-variable revised simplex solver: two-phase primal for cold
starts, bounded dual simplex for warm starts.

The basis inverse is held dense and explicitly (rank-1 eta updates,
refactorization at every start and every 100 updates), and so is A. An
eta update writes only the block where its rank-one term is nonzero: the
rows where B^-1 a_j is nonzero by the columns where the pivot row of B^-1
is. A refactorization inverts only the basis kernel: most basic columns are
slacks or artificials, signed unit columns, and the k structural ones meet
the rows no unit column covers in a k x k block, the only part passed to
``np.linalg.inv``; B^-1 is assembled from its inverse blockwise, with the
m x m basis never formed (kernel or "bump" reduction, as in Suhl and Suhl,
ORSA J. Computing 2(4), 1990). Its cost falls with (k/m)^3; in grid24
TSUC node LPs k is a median 34-39% of m, in their dispatch LPs 13%. Entries
of B^-1 and of B^-1 a_j within DROP_TOL of zero are rounding, which ``inv``
leaves where the exact inverse is zero; they are zeroed, so that the eta
updates do not spread them.

Pricing, the product of a dual vector or a row of B^-1 with every column,
has two kernels, chosen once per problem by A's density: the BLAS product
``v @ A`` for a dense A, and for a sparse one (at most
SPARSE_PRICING_DENSITY nonzero, as in a TSUC node LP, whose PTDF rows are
98-99.5% zeros) a gather over A's nonzeros summed per column by
``np.bincount``. Only the reduced costs' last bits depend on the kernel:
FTRAN, refactorization and the right-hand side use the dense A either way.
The reduced costs d are priced at a phase's start, after a refactorization,
to confirm optimality and for the dual objective; a pivot updates them by
d -= (d_j / alpha_j) alpha with alpha its pivot row of B^-1 [A | slacks]
(Koberstein, PhD thesis, Paderborn 2005), and a bound flip keeps them.

A cold solve runs phase 1 from a crash basis of slacks and artificials,
then phase 2, in which an artificial phase 1 left basic stays pinned at
zero. A warm solve factors the given basis, reoptimizes it with the dual
simplex (which needs a dual feasible basis, as an optimal one stays after
rows are appended or bounds tightened) and finishes with phase 2 as
cleanup. Every TSUC node LP is solved this way, the root from ``slack_start``;
the DCOPF and the dispatch LPs solve cold. Both use a Dantzig-style rule
and fall back to Bland's rule after 2*(m+n) iterations to guarantee
termination on cycling instances.

Every lower bound is finite; an upper bound >= INF_BOUND is treated as
unbounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

INF_BOUND = 1e18
OPT_TOL = 1e-9     # reduced-cost tolerance, relative to the cost scale
FEAS_TOL = 1e-9    # bound-violation tolerance, relative to the rhs scale
PIVOT_TOL = 1e-10  # smallest usable pivot-column entry in a ratio test
DROP_TOL = 1e-14   # B^-1 and FTRAN entries this small are rounding: zeroed
ORACLE_TOL = 1e-9  # brute_force_lp's vertex tolerance, relative to the rhs scale
# Largest share of nonzeros in A at which pricing gathers over A's nonzeros
# instead of taking the dense product. The two kernels break even at about
# 4-8% over the TSUC and DCOPF shapes (72 x 108 to 1,100 x 6,192, one BLAS
# thread).
SPARSE_PRICING_DENSITY = 1 / 20

# Variable states.
_AT_LO = 0
_AT_HI = 1
_BASIC = 2


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class LpProblem:
    """min c @ x  s.t.  a_eq @ x = b_eq,  a_le @ x <= b_le,  lo <= x <= hi,
    with every lower bound finite (above -INF_BOUND)."""

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
        if np.any(self.lo <= -INF_BOUND):
            raise DimensionMismatch("lower bound not finite for some variable")

    @property
    def n(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray
    objective: float
    iterations: int
    dual_objective: float = 0.0
    basis: np.ndarray | None = None       # basic column per row
    col_status: np.ndarray | None = None  # per-column state codes
    # ``iterations`` split by phase: a cold solve runs phase 1 then phase 2,
    # a warm one the dual simplex then phase 2.
    phase1_iterations: int = 0
    dual_iterations: int = 0
    phase2_iterations: int = 0
    warm: bool = False  # the given LpStart was used, not a cold fallback


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


def _nonbasic_value(lo, hi, state):
    """Where a column in ``state`` sits: its upper bound at _AT_HI, else its
    lower bound (a basic column's value is set by the factorization).
    Elementwise over arrays; one column, the case of every pivot and bound
    flip, skips numpy's per-call overhead."""
    if isinstance(state, np.ndarray):
        return np.where(state == _AT_HI, hi, lo)
    return hi if state == _AT_HI else lo


class _Tableau:
    """Mutable simplex state over the standard-form system [A | U] x = b.

    The one owner of the column model and of the basis inverse. Columns are
    the structural ones (A), then a block U of signed unit columns, each a
    row index and a sign: one slack per inequality row (sign +1), then one
    artificial per row (its sign set by the crash basis). Structural and
    slack columns may enter the basis; artificials only leave it.
    """

    def __init__(self, problem: LpProblem):
        m_eq, m_le = problem.a_eq.shape[0], problem.a_le.shape[0]
        m = m_eq + m_le
        self.a = np.vstack([problem.a_eq, problem.a_le])
        # (row, col, value) of A's nonzeros when A is sparse, for pricing.
        # Found through a boolean mask: np.nonzero on the float matrix
        # itself takes about ten times as long.
        self.nonzeros = None
        mask = self.a != 0.0
        if np.count_nonzero(mask) <= SPARSE_PRICING_DENSITY * mask.size:
            flat = np.flatnonzero(mask)
            row, col = np.divmod(flat, problem.n)
            self.nonzeros = row, col, self.a.ravel()[flat]
        self.b = np.concatenate([problem.b_eq, problem.b_le])
        self.unit_row = np.concatenate([np.arange(m_eq, m), np.arange(m)])
        self.unit_sign = np.ones(m_le + m)
        self.n_struct, self.n_slack = problem.n, m_le
        self.n_enter = problem.n + m_le  # the artificials follow
        self.lo = np.concatenate([problem.lo, np.zeros(m_le), np.zeros(m)])
        self.hi = np.concatenate([problem.hi, np.full(m_le, np.inf),
                                  np.full(m, np.inf)])
        self.hi[self.hi >= INF_BOUND] = np.inf
        # The running phase's costs, d under them, and whether price made d.
        self.basis = self.status = self.xval = self.binv = self.cost = None
        self.d, self.fresh = None, False
        self.since_refactor = 0  # pivots since the last factorization

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n_cols(self) -> int:
        return self.unit_row.size + self.n_struct

    def _times_cols(self, v: np.ndarray) -> np.ndarray:
        """v @ [A | slack columns], over every column that may enter."""
        k = self.n_slack
        if self.nonzeros is None:
            struct = v @ self.a
        else:
            row, col, val = self.nonzeros
            struct = np.bincount(col, v[row] * val, self.n_struct)
        return np.concatenate([struct,
                               self.unit_sign[:k] * v[self.unit_row[:k]]])

    def ftran(self, j: int) -> np.ndarray:
        """B^-1 a_j for column j; a signed column of B^-1 for a unit one."""
        if j < self.n_struct:
            w = self.binv @ self.a[:, j]
            return np.where(np.abs(w) > DROP_TOL, w, 0.0)
        k = j - self.n_struct
        return self.binv[:, self.unit_row[k]] * self.unit_sign[k]

    def price(self, cvec: np.ndarray | None = None) -> np.ndarray:
        """Duals y = c_B B^-1, and d afresh, for ``cvec`` as the phase's
        cost vector or for the one already set."""
        self.cost = self.cost if cvec is None else cvec
        y = self.cost[self.basis] @ self.binv
        self.d = self.cost[:self.n_enter] - self._times_cols(y)
        self.fresh = True
        return y

    def tableau_row(self, r: int) -> np.ndarray:
        """Row r of B^-1 [A | slack columns]."""
        return self._times_cols(self.binv[r])

    def nonbasic_rhs(self) -> np.ndarray:
        """b minus the contribution of all nonbasic columns at their values."""
        v = self.xval.copy()
        v[self.basis] = 0.0
        contrib = self.a @ v[:self.n_struct]
        np.add.at(contrib, self.unit_row,
                  self.unit_sign * v[self.n_struct:])
        return self.b - contrib

    def cold_start(self):
        """Every nonbasic column at its lower bound, and a crash basis: the
        slack on every inequality row whose slack start is feasible, an
        artificial signed to start >= 0 elsewhere. Cuts phase-1 work to the
        infeasible rows."""
        self.status = np.full(self.n_cols, _AT_LO, dtype=np.int8)
        self.xval = self.lo.copy()
        m_eq = self.m - self.n_slack
        self.basis = self.n_enter + np.arange(self.m)
        r = self.nonbasic_rhs()
        sign = np.where(r >= 0, 1.0, -1.0)
        self.unit_sign[self.n_slack:] = sign
        slack = np.nonzero(r[m_eq:] >= 0)[0]
        self.basis[m_eq + slack] = self.n_struct + slack
        self.status[self.basis] = _BASIC
        self.refactor()

    def warm_start(self, start: LpStart) -> bool:
        """Adopt an advanced basis with every nonbasic column at the bound
        its state names; False if it is not a basis or cannot be factored."""
        basis = start.basis.astype(int)
        cols = np.unique(basis)
        if (basis.size != self.m or cols.size != self.m
                or start.col_status.size != self.n_cols
                or not np.all((cols >= 0) & (cols < self.n_cols))):
            return False
        status = start.col_status.astype(np.int8)
        status[basis] = _BASIC
        xval = _nonbasic_value(self.lo, self.hi, status)
        if not np.all(np.isfinite(xval)):
            return False
        self.basis, self.status, self.xval = basis, status, xval
        try:
            self.refactor()
        except SingularMatrix:
            return False
        return True

    def refactor(self):
        """B^-1 from the kernel of the basis. With the positions p holding
        unit columns (rows R, signs S) and q the structural ones, and F the
        rows no unit column covers, B is block triangular in rows (R, F) and
        positions (p, q), so only the kernel K = A[F, js[q]] is inverted:
        B^-1[p, R] = S, B^-1[q, F] = K^-1, B^-1[p, F] = -S A[R, js[q]] K^-1,
        zero elsewhere."""
        m, ns = self.m, self.n_struct
        js = self.basis
        struct = js < ns
        p, q = np.flatnonzero(~struct), np.flatnonzero(struct)
        unit = js[p] - ns
        rows, sign = self.unit_row[unit], self.unit_sign[unit]
        free = np.ones(m, dtype=bool)
        free[rows] = False
        f = np.flatnonzero(free)
        if f.size != q.size:  # two unit columns on one row
            raise SingularMatrix("basis matrix singular at refactorization")
        cols = js[q]
        try:
            kinv = np.linalg.inv(self.a[np.ix_(f, cols)])
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix("basis matrix singular at refactorization") from exc
        self.binv = np.zeros((m, m))
        self.binv[p, rows] = sign
        self.binv[np.ix_(q, f)] = kinv
        self.binv[np.ix_(p, f)] = -sign[:, None] * (self.a[np.ix_(rows, cols)]
                                                    @ kinv)
        self.binv[np.abs(self.binv) <= DROP_TOL] = 0.0
        self.xval[self.basis] = self.binv @ self.nonbasic_rhs()
        self.since_refactor = 0
        if self.cost is not None:  # in a phase: d afresh on the new B^-1
            self.price()

    def pivot(self, r: int, j: int, w: np.ndarray, theta: float,
              leave_state: int, alpha: np.ndarray):
        """Basis exchange shared by the primal and the dual simplex: column
        j (with w = B^-1 a_j) moves by theta and enters on row r; the
        leaving column goes nonbasic in ``leave_state``, an artificial at
        its lower bound, since the next tableau no longer pins it above.
        d is updated by the pivot row alpha = ``tableau_row(r)``, taken
        before the exchange. Refactors every 100 exchanges."""
        self.xval[self.basis] -= theta * w
        old = self.basis[r]
        theta_d = self.d[j] / alpha[j]
        self.d -= theta_d * alpha
        self.d[j], self.fresh = 0.0, False
        if old < self.n_enter:
            self.d[old] = -theta_d
        else:
            leave_state = _AT_LO
        self.status[old] = leave_state
        self.xval[old] = _nonbasic_value(self.lo[old], self.hi[old],
                                         leave_state)
        self.basis[r] = j
        self.status[j] = _BASIC
        self.xval[j] += theta

        # Eta update of the inverse, on the block where the rank-one term
        # is nonzero: the rows where w is, the columns where row r is.
        row = self.binv[r] / w[r]
        rows, cols = np.flatnonzero(w), np.flatnonzero(row)
        self.binv[np.ix_(rows, cols)] -= np.multiply.outer(w[rows], row[cols])
        self.binv[r] = row
        self.since_refactor += 1
        if self.since_refactor >= 100:
            self.refactor()


def solve_lp(problem: LpProblem, *, start: LpStart | None = None) -> LpSolution:
    """Solve a bounded-variable LP: two-phase primal simplex from a crash basis,
    or dual simplex plus a primal cleanup from the advanced basis ``start``.
    Stops at ITERATION_LIMIT after 200 * (m + n) + 2000 iterations."""
    t = _Tableau(problem)
    n, m, ne = problem.n, t.m, t.n_enter
    warm = start is not None and t.warm_start(start)
    if not warm:
        t.cold_start()

    iter_limit = 200 * (m + n) + 2000
    bland_after = 2 * (m + n)

    c_phase1 = np.zeros(t.n_cols)
    c_phase1[ne:] = 1.0
    c_phase2 = np.zeros(t.n_cols)
    c_phase2[:n] = problem.c

    iters = 0
    movable = t.hi[:ne] > t.lo[:ne]  # fixed columns never enter
    c_scale = 1.0 + float(np.max(np.abs(problem.c))) if n else 1.0
    b_scale = 1.0 + (float(np.max(np.abs(t.b))) if m else 0.0)

    def can_move(g, tol) -> np.ndarray:
        """Movable nonbasic columns that improve by moving in direction g:
        up from the lower bound, down from the upper."""
        sl = t.status[:ne]
        return movable & (((sl == _AT_LO) & (g > tol))
                          | ((sl == _AT_HI) & (g < -tol)))

    def run_phase(cvec, phase: int) -> LpStatus:
        nonlocal iters
        dtol = OPT_TOL * (c_scale if phase == 2 else b_scale)
        t.price(cvec)
        while True:
            if iters >= iter_limit:
                return LpStatus.ITERATION_LIMIT
            idx = np.nonzero(can_move(-t.d, dtol))[0]
            if idx.size == 0:
                if t.fresh:
                    return LpStatus.OPTIMAL
                t.price()  # optimal only on d afresh
                continue
            if iters > bland_after:
                j = int(idx[0])
            else:
                j = int(idx[np.argmax(np.abs(t.d[idx]))])
            iters += 1

            sj = t.status[j]
            direction = 1.0 if sj == _AT_LO else -1.0
            w = t.ftran(j)

            # Ratio test: basic variables hitting their bounds, plus a
            # possible bound flip of the entering variable itself.
            dw = direction * w
            xb, lob, hib = t.xval[t.basis], t.lo[t.basis], t.hi[t.basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                down = np.where(dw > PIVOT_TOL, (xb - lob) / dw, np.inf)
                up = np.where(dw < -PIVOT_TOL, (xb - hib) / dw, np.inf)
            lim = np.minimum(down, up)
            lim[~np.isfinite(lim)] = np.inf
            lim = np.maximum(lim, 0.0)

            flip = t.hi[j] - t.lo[j]  # inf for a column with no upper bound

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
                return LpStatus.UNBOUNDED

            if flip < step - 1e-15 or leave < 0:
                # Bound flip: entering variable moves to its other bound.
                t.xval[t.basis] -= flip * dw
                t.status[j] = _AT_HI if sj == _AT_LO else _AT_LO
                t.xval[j] = _nonbasic_value(t.lo[j], t.hi[j], t.status[j])
                continue

            # dw > 0 means the leaving basic variable decreased onto its
            # lower bound; dw < 0 means it rose onto its upper bound.
            t.pivot(leave, j, w, direction * step,
                    _AT_LO if dw[leave] > 0 else _AT_HI, t.tableau_row(leave))

    def dual_phase() -> LpStatus:
        """Bounded dual simplex from a dual feasible basis, until the basis
        is primal feasible. The leaving row has the largest bound
        violation; a row that no nonbasic column can move toward its bound
        certifies infeasibility."""
        nonlocal iters
        t.price(c_phase2)
        while True:
            xb = t.xval[t.basis]
            below = t.lo[t.basis] - xb
            viol = np.maximum(below, xb - t.hi[t.basis])
            bad = np.nonzero(viol > FEAS_TOL * b_scale)[0]
            if bad.size == 0:
                return LpStatus.OPTIMAL
            if iters >= iter_limit:
                return LpStatus.ITERATION_LIMIT
            bland = iters > bland_after
            r = int(bad[np.argmin(t.basis[bad])] if bland
                    else bad[np.argmax(viol[bad])])
            rises = below[r] > 0  # x_r must rise to its lower bound
            # x_r falls by alpha_j per unit rise of nonbasic column j, so
            # g_j is its move toward the bound.
            alpha = t.tableau_row(r)
            g = -alpha if rises else alpha
            idx = np.nonzero(can_move(g, PIVOT_TOL))[0]
            if idx.size == 0:
                if t.since_refactor == 0:
                    return LpStatus.INFEASIBLE
                t.refactor()  # confirm the certificate on a fresh inverse
                continue
            # Dual ratio test: the column whose reduced cost reaches zero
            # first; ties go to the largest pivot.
            ratio = np.abs(t.d[idx] / alpha[idx])
            ties = idx[ratio <= ratio.min() * (1 + 1e-9) + 1e-12]
            q = int(ties[0] if bland else ties[np.argmax(np.abs(alpha[ties]))])
            iters += 1

            w = t.ftran(q)
            target = t.lo[t.basis[r]] if rises else t.hi[t.basis[r]]
            t.pivot(r, q, w, (xb[r] - target) / w[r],
                    _AT_LO if rises else _AT_HI, alpha)

    # Artificials stay fixed at zero once phase 1 is over; one still basic
    # is pinned there by these bounds.
    if warm:
        t.hi[ne:] = 0.0
        status = dual_phase()
    else:
        status = run_phase(c_phase1, 1)
        if status is not LpStatus.ITERATION_LIMIT:
            left = float(c_phase1[t.basis] @ t.xval[t.basis])  # artificial total
            status = (LpStatus.INFEASIBLE if left > FEAS_TOL * b_scale
                      else LpStatus.OPTIMAL)
        t.hi[ne:] = 0.0
    first = iters  # phase-1 or dual iterations
    if status is LpStatus.OPTIMAL:
        status = run_phase(c_phase2, 2)

    y, d = t.price(c_phase2), t.d
    x = t.xval[:n].copy()
    obj = (-np.inf if status is LpStatus.UNBOUNDED
           else np.inf if status is LpStatus.INFEASIBLE
           else float(problem.c @ x))
    nonbasic = t.status[:ne] != _BASIC
    dual_obj = float(y @ t.b + d[nonbasic] @ t.xval[:ne][nonbasic])
    return LpSolution(status, x, obj, iters, dual_obj,
                      basis=t.basis.copy(), col_status=t.status.copy(),
                      phase1_iterations=0 if warm else first,
                      dual_iterations=first if warm else 0,
                      phase2_iterations=iters - first, warm=warm)


def remap_start(sol: LpSolution, n: int, m_eq: int, m_le: int) -> LpStart:
    """Carry a solved basis over to the same problem with ``<=`` rows
    appended, ``m_le`` of them in all; the bounds may differ.

    Each appended row gets its slack as the basic variable. The artificial
    columns follow the slacks, so they shift past the new ones.
    """
    extra = m_le - (sol.basis.size - m_eq)
    art = n + m_le - extra  # first artificial column of the solved problem
    basis = np.where(sol.basis >= art, sol.basis + extra, sol.basis)
    col_status = np.concatenate([
        sol.col_status[:art], np.full(extra, _BASIC, dtype=np.int8),
        sol.col_status[art:], np.full(extra, _AT_LO, dtype=np.int8),
    ])
    return LpStart(basis=np.concatenate([basis, art + np.arange(extra)]),
                   col_status=col_status)


def slack_start(n: int, m_eq: int, m_le: int) -> LpStart:
    """The slack basis for ``n`` columns, ``m_eq`` equality and ``m_le``
    ``<=`` rows: the slack basic on each ``<=`` row, the artificial on each
    equality row, every structural column at its lower bound. Dual feasible
    when c >= 0, so ``solve_lp`` needs no phase 1; for any other c the
    phase-2 cleanup still solves the LP."""
    m = m_eq + m_le
    col_status = np.full(n + m_le + m, _AT_LO, dtype=np.int8)
    basis = np.concatenate([n + m_le + np.arange(m_eq), n + np.arange(m_le)])
    col_status[basis] = _BASIC
    return LpStart(basis=basis, col_status=col_status)


def brute_force_lp(problem: LpProblem) -> LpSolution:
    """Vertex-enumeration oracle for small LPs.

    Enumerates every choice of n active constraints (equality rows always
    active) among inequality rows, lower bounds and finite upper bounds,
    solves the square system, and keeps the best feasible vertex.
    Independent of the simplex path; intended for problems with n <= ~8.
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
        e[j] = 1.0
        cands.append((e, problem.lo[j]))
        if problem.hi[j] < INF_BOUND:
            cands.append((e, problem.hi[j]))

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
            and np.all(x >= problem.lo - tol)
            and np.all(x <= np.minimum(problem.hi, INF_BOUND) + tol)
        )
        if feasible:
            obj = float(problem.c @ x)
            if obj < best_obj - 0.0:
                best_obj, best_x = obj, x
    if best_x is None:
        return LpSolution(LpStatus.INFEASIBLE, np.zeros(n), np.inf, 0)
    return LpSolution(LpStatus.OPTIMAL, best_x, best_obj, 0, best_obj)
