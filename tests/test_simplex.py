import numpy as np
import pytest

from ucsm.errors import DimensionMismatch, SingularMatrix
from ucsm.simplex import (_AT_HI, _AT_LO, _BASIC, DROP_TOL, INF_BOUND,
                          OPT_TOL, SPARSE_PRICING_DENSITY, LpProblem, LpStart,
                          LpStatus, _Tableau, brute_force_lp, remap_start,
                          slack_start, solve_lp)


def box(n):
    return np.zeros(n), np.full(n, INF_BOUND)


def test_textbook_maximization():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), 36.
    lo, hi = box(2)
    prob = LpProblem(c=[-3.0, -5.0], a_eq=np.zeros((0, 2)), b_eq=[],
                     a_le=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                     b_le=[4.0, 12.0, 18.0], lo=lo, hi=hi)
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [2.0, 6.0], atol=1e-8)
    assert sol.objective == pytest.approx(-36.0)


def test_equality_constraints():
    prob = LpProblem(c=[1.0, 2.0, 3.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[6.0],
                     a_le=np.zeros((0, 3)), b_le=[],
                     lo=np.zeros(3), hi=np.full(3, 4.0))
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [4.0, 2.0, 0.0], atol=1e-8)


def test_infeasible():
    """Cold (phase 1) and warm (dual simplex) solves report INFEASIBLE
    with an infinite objective, as the vertex oracle does."""
    prob = LpProblem(c=[1.0], a_eq=[[1.0]], b_eq=[5.0],
                     a_le=np.zeros((0, 1)), b_le=[],
                     lo=[0.0], hi=[1.0])
    warm = solve_lp(prob, start=slack_start(1, 1, 0))
    assert warm.warm
    for sol in (solve_lp(prob), warm, brute_force_lp(prob)):
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.objective == np.inf


def test_unbounded():
    lo, hi = box(1)
    prob = LpProblem(c=[-1.0], a_eq=np.zeros((0, 1)), b_eq=[],
                     a_le=np.zeros((0, 1)), b_le=[], lo=lo, hi=hi)
    sol = solve_lp(prob)
    assert sol.status is LpStatus.UNBOUNDED
    assert sol.objective == -np.inf


def test_bound_flip_only_problem():
    # No rows at all: variables sit at the cheaper bound.
    prob = LpProblem(c=[1.0, -1.0], a_eq=np.zeros((0, 2)), b_eq=[],
                     a_le=np.zeros((0, 2)), b_le=[],
                     lo=np.array([2.0, 0.0]), hi=np.array([5.0, 3.0]))
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [2.0, 3.0])


def test_negative_lower_bounds():
    prob = LpProblem(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[0.0],
                     a_le=np.zeros((0, 2)), b_le=[],
                     lo=np.array([-2.0, -3.0]), hi=np.array([5.0, 5.0]))
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        LpProblem(c=[1.0, 2.0], a_eq=np.zeros((0, 2)), b_eq=[],
                  a_le=[[1.0, 1.0]], b_le=[1.0, 2.0],
                  lo=np.zeros(2), hi=np.ones(2))
    with pytest.raises(DimensionMismatch):
        LpProblem(c=[1.0], a_eq=np.zeros((0, 1)), b_eq=[],
                  a_le=np.zeros((0, 1)), b_le=[],
                  lo=[1.0], hi=[0.0])
    # Every lower bound is finite: -inf and -INF_BOUND are rejected.
    for lo in (-np.inf, -INF_BOUND):
        with pytest.raises(DimensionMismatch):
            LpProblem(c=[1.0, 1.0], a_eq=np.zeros((0, 2)), b_eq=[],
                      a_le=np.zeros((0, 2)), b_le=[],
                      lo=[0.0, lo], hi=[1.0, INF_BOUND])


def random_lp(rng, n=None, m_eq=None):
    n = n or int(rng.integers(2, 7))
    m_eq = int(rng.integers(0, 2)) if m_eq is None else m_eq
    m_le = int(rng.integers(1, 5))
    return LpProblem(
        c=rng.normal(size=n),
        a_eq=rng.normal(size=(m_eq, n)),
        b_eq=rng.normal(size=m_eq) * 0.5,
        a_le=rng.normal(size=(m_le, n)),
        b_le=rng.uniform(0.2, 2.0, size=m_le),
        lo=np.zeros(n),
        hi=rng.uniform(0.5, 4.0, size=n),
    )


def test_agrees_with_vertex_oracle(rng):
    solved = 0
    for _ in range(100):
        prob = random_lp(rng)
        sol = solve_lp(prob)
        ref = brute_force_lp(prob)
        assert sol.status is ref.status
        if sol.status is LpStatus.OPTIMAL:
            assert sol.objective == pytest.approx(ref.objective, abs=1e-8,
                                                  rel=1e-8)
            solved += 1
    assert solved >= 30  # sanity: the fuzz hits plenty of feasible LPs


def assert_no_duality_gap(sol):
    gap = abs(sol.objective - sol.dual_objective)
    assert gap <= 1e-6 * (1.0 + abs(sol.objective))


def test_duality_gap_small(rng):
    for _ in range(100):
        prob = random_lp(rng)
        sol = solve_lp(prob)
        if sol.status is LpStatus.OPTIMAL:
            assert_no_duality_gap(sol)


def test_primal_feasibility_of_solutions(rng):
    for _ in range(100):
        prob = random_lp(rng)
        sol = solve_lp(prob)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        x = sol.x
        assert np.all(prob.a_le @ x <= prob.b_le + 1e-7)
        if prob.a_eq.shape[0]:
            np.testing.assert_allclose(prob.a_eq @ x, prob.b_eq, atol=1e-7)
        assert np.all(x >= prob.lo - 1e-9)
        assert np.all(x <= prob.hi + 1e-9)


def test_degenerate_problem_terminates():
    # Many redundant rows through the same vertex.
    n = 4
    a = np.vstack([np.eye(n), np.eye(n), np.ones((1, n))])
    b = np.concatenate([np.zeros(2 * n), [0.0]])
    prob = LpProblem(c=-np.ones(n), a_eq=np.zeros((0, n)), b_eq=[],
                     a_le=a, b_le=b, lo=np.zeros(n), hi=np.ones(n))
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_warm_start_matches_cold(rng):
    """Re-solving with appended rows from a remapped basis is exact."""
    agree = dual = phase1 = 0
    for _ in range(150):
        prob = random_lp(rng)
        sol0 = solve_lp(prob)
        if sol0.status is not LpStatus.OPTIMAL:
            continue
        n = prob.n
        extra = int(rng.integers(1, 4))
        a2 = rng.normal(size=(extra, n))
        b2 = a2 @ sol0.x + rng.normal(size=extra) * 0.3
        prob2 = LpProblem(c=prob.c, a_eq=prob.a_eq, b_eq=prob.b_eq,
                          a_le=np.vstack([prob.a_le, a2]),
                          b_le=np.concatenate([prob.b_le, b2]),
                          lo=prob.lo, hi=prob.hi)
        start = remap_start(sol0, n, prob.a_eq.shape[0], prob2.a_le.shape[0])
        warm = solve_lp(prob2, start=start)
        cold = solve_lp(prob2)
        assert warm.status is cold.status
        if warm.status is LpStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7,
                                                   rel=1e-7)
            assert_no_duality_gap(warm)
            agree += 1
        # The phase split sums to the total; a warm solve runs no phase 1
        # and a cold one no dual simplex.
        for sol in (sol0, warm, cold):
            assert (sol.phase1_iterations + sol.dual_iterations
                    + sol.phase2_iterations == sol.iterations)
        assert warm.phase1_iterations == 0
        assert sol0.dual_iterations == cold.dual_iterations == 0
        dual += warm.dual_iterations > 0
        phase1 += cold.phase1_iterations > 0
    assert agree >= 50 and dual >= 50 and phase1 >= 50


def test_dual_simplex_reoptimizes_appended_cut_in_one_pivot():
    # The textbook optimum (2, 6) violates 3x + 4.4y <= 31.4 by 1. Both
    # nonbasic slacks can restore it; the dual ratio test must take the
    # one with the smaller pivot (ratio 1 against 1.25), which reaches the
    # new optimum (5/3, 6), -35, in one pivot with no phase-2 cleanup.
    lo, hi = box(2)
    a_le = [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]]
    prob = LpProblem(c=[-3.0, -5.0], a_eq=np.zeros((0, 2)), b_eq=[],
                     a_le=a_le, b_le=[4.0, 12.0, 18.0], lo=lo, hi=hi)
    cut = LpProblem(c=prob.c, a_eq=prob.a_eq, b_eq=[],
                    a_le=a_le + [[3.0, 4.4]], b_le=[4.0, 12.0, 18.0, 31.4],
                    lo=lo, hi=hi)
    warm = solve_lp(cut, start=remap_start(solve_lp(prob), 2, 0, 4))
    assert warm.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(warm.x, [5.0 / 3.0, 6.0], atol=1e-9)
    assert warm.objective == pytest.approx(-35.0)
    assert warm.iterations == warm.dual_iterations == 1


def test_warm_start_with_fixed_columns_and_rows(rng):
    """Branch-style bound fixings lo == hi on 1-3 columns, together with
    appended rows, reoptimize from the parent basis to the cold answer,
    infeasible children included."""
    agree = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0}
    for _ in range(300):
        prob = random_lp(rng, m_eq=int(rng.integers(1, 3)))
        sol0 = solve_lp(prob)
        if sol0.status is not LpStatus.OPTIMAL:
            continue
        n = prob.n
        lo, hi = prob.lo.copy(), prob.hi.copy()
        for j in rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)),
                            replace=False):
            lo[j] = hi[j] = rng.choice([lo[j], hi[j], sol0.x[j]])
        extra = int(rng.integers(0, 3))
        a2 = rng.normal(size=(extra, n))
        b2 = a2 @ sol0.x + rng.normal(size=extra) * 0.3
        prob2 = LpProblem(c=prob.c, a_eq=prob.a_eq, b_eq=prob.b_eq,
                          a_le=np.vstack([prob.a_le, a2]),
                          b_le=np.concatenate([prob.b_le, b2]), lo=lo, hi=hi)
        start = remap_start(sol0, n, prob.a_eq.shape[0], prob2.a_le.shape[0])
        warm = solve_lp(prob2, start=start)
        cold = solve_lp(prob2)
        assert warm.status is cold.status
        if warm.status is LpStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7,
                                                   rel=1e-7)
        agree[warm.status] += 1
    assert agree[LpStatus.OPTIMAL] >= 50 and agree[LpStatus.INFEASIBLE] >= 50


def test_unusable_start_falls_back_to_cold():
    """A start that repeats a column, is singular, names a column out of
    range or puts a nonbasic column at an infinite bound gives the cold
    answer."""
    prob = LpProblem(c=[-1.0, -1.0, -2.0], a_eq=np.zeros((0, 3)), b_eq=[],
                     a_le=[[1.0, 2.0, 1.0], [2.0, 4.0, 1.0]], b_le=[4.0, 6.0],
                     lo=[0.5, 0.0, 0.0], hi=np.full(3, 5.0))
    cold = solve_lp(prob)
    assert cold.status is LpStatus.OPTIMAL
    at_lo = np.zeros(3 + 2 + 2, dtype=np.int8)
    slack_at_inf = at_lo.copy()
    slack_at_inf[4] = 1  # second slack "at its upper bound", which is inf
    for basis, status in (([0, 0], at_lo),
                          ([0, 1], at_lo),  # column 1 is twice column 0
                          ([0, 7], at_lo),
                          ([0, 2], slack_at_inf)):
        warm = solve_lp(prob, start=LpStart(basis=np.array(basis),
                                            col_status=status))
        assert warm.status is cold.status
        assert warm.objective == cold.objective
        assert warm.iterations == cold.iterations
        assert not warm.warm and not cold.warm


@pytest.mark.parametrize("c", [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
def test_artificial_left_basic_after_phase_one(c):
    """On -x1 - x2 = 0 phase 1 ends at once with the row's artificial basic
    at zero, though the row is not redundant. Pinned at zero by its bounds,
    it leaves the basis in phase 2 or stays to the end (c = (1, 1)), and a
    child with an appended row warm-starts from either basis."""
    lo, hi = np.zeros(2), np.full(2, 5.0)
    prob = LpProblem(c=c, a_eq=[[-1.0, -1.0]], b_eq=[0.0],
                     a_le=np.zeros((0, 2)), b_le=[], lo=lo, hi=hi)
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_array_equal(sol.x, [0.0, 0.0])
    assert sol.objective == 0.0
    child = LpProblem(c=c, a_eq=prob.a_eq, b_eq=prob.b_eq,
                      a_le=[[1.0, 0.0]], b_le=[1.0], lo=lo, hi=hi)
    warm = solve_lp(child, start=remap_start(sol, 2, 1, 1))
    cold = solve_lp(child)
    assert warm.status is cold.status
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)


def test_artificial_left_in_dual_phase_keeps_child_warm():
    """From the slack basis, the artificial of x1 + x2 = 1 starts basic at
    1 and falls to its pinned bound 0 as x1 enters. It is recorded at its
    lower bound, so a child with an appended row starts warm, though the
    child's artificials are no longer pinned above."""
    c, lo, hi = [1.0, 2.0], np.zeros(2), np.full(2, 5.0)
    prob = LpProblem(c=c, a_eq=[[1.0, 1.0]], b_eq=[1.0],
                     a_le=np.zeros((0, 2)), b_le=[], lo=lo, hi=hi)
    sol = solve_lp(prob, start=slack_start(2, 1, 0))
    assert sol.warm and sol.status is LpStatus.OPTIMAL
    assert sol.iterations == sol.dual_iterations == 1
    np.testing.assert_array_equal(sol.basis, [0])
    assert sol.col_status[2] == _AT_LO
    child = LpProblem(c=c, a_eq=prob.a_eq, b_eq=prob.b_eq,
                      a_le=[[1.0, 0.0]], b_le=[0.5], lo=lo, hi=hi)
    warm = solve_lp(child, start=remap_start(sol, 2, 1, 1))
    assert warm.warm and warm.phase1_iterations == 0
    assert warm.objective == pytest.approx(solve_lp(child).objective,
                                           abs=1e-12)
    np.testing.assert_allclose(warm.x, [0.5, 0.5], atol=1e-12)


def test_warm_start_without_rows():
    """A problem with no rows at all takes the empty basis as a start."""
    prob = LpProblem(c=[1.0, -1.0], a_eq=np.zeros((0, 2)), b_eq=[],
                     a_le=np.zeros((0, 2)), b_le=[],
                     lo=np.zeros(2), hi=np.full(2, 3.0))
    start = LpStart(basis=np.zeros(0, dtype=int),
                    col_status=np.zeros(2, dtype=np.int8))
    sol = solve_lp(prob, start=start)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_array_equal(sol.x, [0.0, 3.0])


def test_crash_basis_matches_row_rule(rng):
    """The crash basis, built with array code, follows the per-row rule:
    the slack on an inequality row whose slack start is feasible, else the
    row's artificial, signed to start at |r_i| >= 0."""
    for _ in range(100):
        n, m_eq, m_le = 4, int(rng.integers(0, 3)), int(rng.integers(0, 4))
        lo = rng.normal(size=n)
        hi = np.where(rng.random(n) < 0.3, INF_BOUND, np.abs(lo) + 1.0)
        prob = LpProblem(c=rng.normal(size=n), a_eq=rng.normal(size=(m_eq, n)),
                         b_eq=rng.normal(size=m_eq),
                         a_le=rng.normal(size=(m_le, n)),
                         b_le=rng.normal(size=m_le), lo=lo, hi=hi)
        t = _Tableau(prob)
        t.cold_start()
        r = np.concatenate([prob.b_eq, prob.b_le]) - np.vstack(
            [prob.a_eq, prob.a_le]) @ lo
        for i in range(m_eq + m_le):
            if i >= m_eq and r[i] >= 0:
                assert t.basis[i] == n + i - m_eq
            else:
                assert t.basis[i] == n + m_le + i
                assert t.unit_sign[m_le + i] == (1.0 if r[i] >= 0 else -1.0)
        np.testing.assert_array_equal(t.xval[t.basis], np.abs(r))


def test_eta_update_matches_dense_rank_one(rng):
    """The eta update writes only the block where w = B^-1 a_j and the
    pivot row are nonzero; every entry still equals the dense masked
    rank-one update, pivot after pivot. FTRAN of a slack or artificial
    column is a signed column of B^-1, equal to B^-1 e."""
    pivots = 0
    for trial in range(120):
        n, m_eq, m_le = (int(rng.integers(8, 30)), int(rng.integers(0, 6)),
                         int(rng.integers(3, 20)))
        m = m_eq + m_le
        a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.15)
        prob = LpProblem(c=rng.normal(size=n), a_eq=a[:m_eq],
                         b_eq=rng.normal(size=m_eq), a_le=a[m_eq:],
                         b_le=rng.normal(size=m_le), lo=np.zeros(n),
                         hi=np.full(n, 2.0))
        t = _Tableau(prob)
        t.cold_start()
        if trial % 2:  # also from a factored basis, not just the crash one
            t.warm_start(LpStart(basis=t.basis.copy(),
                                 col_status=t.status.copy()))
        t.price(np.concatenate([prob.c, np.zeros(t.n_cols - n)]))
        for _ in range(min(m, 40)):
            enter = [j for j in range(t.n_enter) if t.status[j] != _BASIC
                     and np.any(t.ftran(j))]
            if not enter:
                break
            j = int(rng.choice(enter))
            w = t.ftran(j)
            big = np.flatnonzero(np.abs(w) >= 0.5 * np.max(np.abs(w)))
            r = int(rng.choice(big))
            ref = t.binv.copy()
            ref[r, :] /= w[r]
            others = np.arange(m) != r
            ref[others, :] -= np.outer(w[others], ref[r, :])
            t.pivot(r, j, w, 0.0, _AT_LO, t.tableau_row(r))
            np.testing.assert_array_equal(t.binv, ref)
            pivots += 1
            for k in range(t.n_struct, t.n_cols):
                e = np.zeros(m)
                e[t.unit_row[k - t.n_struct]] = t.unit_sign[k - t.n_struct]
                np.testing.assert_array_equal(t.ftran(k), t.binv @ e)
    assert pivots >= 1000


def assembled_basis(t):
    """The m x m basis matrix, one column per basis position."""
    bmat = np.zeros((t.m, t.m))
    for i, j in enumerate(t.basis):
        if j < t.n_struct:
            bmat[:, i] = t.a[:, j]
        else:
            bmat[t.unit_row[j - t.n_struct], i] = t.unit_sign[j - t.n_struct]
    return bmat


def crashed_tableau(rng, n, m_eq, m_le):
    """A random dense LP's tableau after its crash basis, so about half of
    its artificials are signed -1."""
    prob = LpProblem(c=rng.normal(size=n), a_eq=rng.normal(size=(m_eq, n)),
                     b_eq=rng.normal(size=m_eq), a_le=rng.normal(size=(m_le, n)),
                     b_le=rng.normal(size=m_le), lo=np.zeros(n),
                     hi=np.full(n, 2.0))
    t = _Tableau(prob)
    t.cold_start()
    return t


def mixed_basis(rng, t, k):
    """k structural columns, and on each of the m - k other rows its slack
    or its artificial, in shuffled positions."""
    m_eq = t.m - t.n_slack
    rows = rng.permutation(t.m)[:t.m - k]
    slack = (rows >= m_eq) & (rng.random(rows.size) < 0.5)
    units = np.where(slack, t.n_struct + rows - m_eq, t.n_enter + rows)
    struct = rng.permutation(t.n_struct)[:k]
    return rng.permutation(np.concatenate([struct, units]).astype(int))


@pytest.mark.parametrize("m_eq, m_le", [(0, 0), (0, 6), (4, 0), (3, 9)])
def test_refactor_inverts_mixed_bases(rng, m_eq, m_le):
    """refactor inverts only the kernel of structural columns, yet its
    B^-1 times the assembled B is I, for every kernel size k from 0 (all
    unit columns) to m (all structural), and B x_B is the nonbasic rhs."""
    m = m_eq + m_le
    negative = 0
    for trial in range(40):
        t = crashed_tableau(rng, 12, m_eq, m_le)
        negative += int(np.sum(t.unit_sign[t.n_slack:] < 0))
        k = (0, m)[trial] if trial < 2 else int(rng.integers(0, m + 1))
        t.basis = mixed_basis(rng, t, k)
        t.refactor()
        bmat = assembled_basis(t)
        np.testing.assert_allclose(t.binv @ bmat, np.eye(m), atol=1e-9)
        np.testing.assert_allclose(bmat @ t.xval[t.basis], t.nonbasic_rhs(),
                                   atol=1e-9)
        assert t.since_refactor == 0
    assert m == 0 or negative > 0


def test_refactor_and_ftran_drop_rounding_dust():
    """The exact inverse of a lower triangular kernel is lower triangular,
    but np.linalg.inv leaves entries of about 1e-16 above the diagonal.
    refactor zeroes every entry of B^-1 within DROP_TOL, and FTRAN every
    entry of its result, so the eta updates skip them; B^-1 a_j of a basic
    column is then the unit vector, exactly zero off its own row."""
    k = np.array([[-1 / 7, 0.0, 0.0], [3 / 7, -0.2, 0.0], [-3 / 7, -0.1, 0.3]])
    assert np.any(np.triu(np.linalg.inv(k), 1) != 0.0)
    t = _Tableau(LpProblem(c=np.ones(3), a_eq=np.zeros((0, 3)), b_eq=[],
                           a_le=k, b_le=np.ones(3), lo=np.zeros(3),
                           hi=np.full(3, 5.0)))
    t.cold_start()
    t.basis = np.arange(3)
    t.refactor()
    assert not np.any((t.binv != 0.0) & (np.abs(t.binv) <= DROP_TOL))
    np.testing.assert_array_equal(np.triu(t.binv, 1), 0.0)
    np.testing.assert_allclose(t.binv @ k, np.eye(3), atol=1e-15)
    for j in range(3):
        w = t.ftran(j)
        np.testing.assert_array_equal(np.delete(w, j), 0.0)
        assert w[j] == pytest.approx(1.0, abs=1e-15)


def test_refactor_rejects_singular_bases(rng):
    """Two unit columns on one row, or a singular kernel, raise
    SingularMatrix."""
    t = crashed_tableau(rng, 6, 1, 3)  # rows 0 (=) and 1-3 (<=)
    n, ne = t.n_struct, t.n_enter
    t.basis = np.array([n, ne + 1, 0, ne + 3])  # slack and artificial of row 1
    with pytest.raises(SingularMatrix):
        t.refactor()
    t.a[:2, 1] = 0.0  # column 1 is zero on the rows the kernel keeps
    t.basis = np.array([0, 1, ne + 2, ne + 3])
    with pytest.raises(SingularMatrix):
        t.refactor()


def sparse_lp(rng, n, m_eq, m_le, density=0.03):
    """A feasible LP whose rows hold about ``density`` * n nonzeros each,
    at least one, with every column boxed in [0, hi]."""
    m = m_eq + m_le
    a = rng.normal(size=(m, n)) * (rng.random((m, n)) < density)
    a[np.arange(m), rng.integers(0, n, size=m)] = rng.normal(size=m)
    hi = rng.uniform(1.0, 4.0, size=n)
    x0 = rng.uniform(0.0, 1.0, size=n) * hi
    return LpProblem(c=rng.normal(size=n), a_eq=a[:m_eq], b_eq=a[:m_eq] @ x0,
                     a_le=a[m_eq:],
                     b_le=a[m_eq:] @ x0 + rng.uniform(0.0, 1.0, size=m_le),
                     lo=np.zeros(n), hi=hi)


def dense_times_cols(t, v):
    """The dense pricing kernel, v @ [A | slack columns]."""
    k = t.n_slack
    return np.concatenate([v @ t.a, t.unit_sign[:k] * v[t.unit_row[:k]]])


@pytest.mark.parametrize("m_eq, m_le", [(3, 40), (20, 0), (0, 0)])
def test_sparse_pricing_matches_dense_product(rng, m_eq, m_le):
    """A sparse A is priced from its nonzeros (every row of B^-1 or any
    dual vector gives v @ A to rounding), a dense one by the product. The
    last column is all zero, so the sparse kernel must still size its
    result to every column."""
    n = 150
    prob = sparse_lp(rng, n, m_eq, m_le)
    prob.a_eq[:, -1] = prob.a_le[:, -1] = 0.0
    t = _Tableau(prob)
    assert t.nonzeros is not None
    assert t.nonzeros[0].size <= SPARSE_PRICING_DENSITY * t.a.size
    for _ in range(20):
        v = rng.normal(size=t.m)
        got, want = t._times_cols(v), dense_times_cols(t, v)
        assert got.shape == want.shape == (n + m_le,)
        assert got[n - 1] == 0.0
        bound = 1e-13 * (np.abs(v) @ np.abs(t.a))
        assert np.all(np.abs(got[:n] - want[:n]) <= bound)
        np.testing.assert_array_equal(got[n:], want[n:])
    assert _Tableau(random_lp(rng)).nonzeros is None


def test_sparse_pricing_solves_as_dense(rng, monkeypatch):
    """Sparse LPs, cold and as warm children with one column fixed and a
    row appended, reach the status and objective of solves priced by the
    dense product."""
    def solve_dense(*args, **kwargs):
        with monkeypatch.context() as mp:
            mp.setattr(_Tableau, "_times_cols", dense_times_cols)
            return solve_lp(*args, **kwargs)

    solved = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0}
    for _ in range(40):
        n, m_eq, m_le = 120, int(rng.integers(0, 6)), int(rng.integers(20, 40))
        prob = sparse_lp(rng, n, m_eq, m_le)
        assert _Tableau(prob).nonzeros is not None
        sparse, dense = solve_lp(prob), solve_dense(prob)
        assert sparse.status is dense.status is LpStatus.OPTIMAL
        assert sparse.objective == pytest.approx(dense.objective, rel=1e-9,
                                                 abs=1e-9)
        lo, hi = prob.lo.copy(), prob.hi.copy()
        j = int(rng.integers(n))
        lo[j] = hi[j] = rng.choice([lo[j], hi[j]])
        row = rng.normal(size=n) * (rng.random(n) < 0.03)
        row[rng.integers(n)] = 1.0
        child = LpProblem(c=prob.c, a_eq=prob.a_eq, b_eq=prob.b_eq,
                          a_le=np.vstack([prob.a_le, row]),
                          b_le=np.append(prob.b_le, row @ sparse.x
                                         + rng.normal() * 0.5),
                          lo=lo, hi=hi)
        warm = [solve(child, start=remap_start(sol, n, m_eq, m_le + 1))
                for solve, sol in ((solve_lp, sparse), (solve_dense, dense))]
        assert warm[0].status is warm[1].status
        if warm[0].status is LpStatus.OPTIMAL:
            assert warm[0].objective == pytest.approx(
                warm[1].objective, rel=1e-9, abs=1e-9)
        solved[warm[0].status] += 1
    assert solved[LpStatus.OPTIMAL] >= 10 and solved[LpStatus.INFEASIBLE] >= 5


@pytest.mark.parametrize("signed", [False, True])
def test_slack_start_matches_cold(rng, signed):
    """Small dense and larger sparse LPs solved from the slack basis reach
    the cold status and objective. With c >= 0 that basis is dual feasible,
    so no phase 1 runs; with mixed signs the phase-2 cleanup finishes."""
    solved = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0}
    for i in range(220):
        prob = (sparse_lp(rng, 120, int(rng.integers(0, 6)),
                          int(rng.integers(20, 40)))
                if i % 10 == 0 else random_lp(rng))
        if not signed:
            prob.c = np.abs(prob.c)
        cold = solve_lp(prob)
        sol = solve_lp(prob, start=slack_start(prob.n, prob.b_eq.size,
                                               prob.b_le.size))
        assert sol.warm and sol.status is cold.status
        if sol.status is LpStatus.OPTIMAL:
            assert sol.objective == pytest.approx(cold.objective, abs=1e-7,
                                                  rel=1e-7)
            assert_no_duality_gap(sol)
        if not signed:
            assert sol.phase1_iterations == 0
        solved[sol.status] += 1
    assert solved[LpStatus.OPTIMAL] >= 150 and solved[LpStatus.INFEASIBLE] >= 10


def child_lp(rng, prob, x):
    """``prob`` with one to four random rows appended, each violated at x
    about half the time, as a lazy round or a branch appends them."""
    extra = int(rng.integers(1, 5))
    rows = rng.normal(size=(extra, prob.n)) * (rng.random((extra, prob.n)) < 0.2)
    return LpProblem(c=prob.c, a_eq=prob.a_eq, b_eq=prob.b_eq,
                     a_le=np.vstack([prob.a_le, rows]),
                     b_le=np.concatenate([prob.b_le, rows @ x
                                          + rng.normal(size=extra) * 0.3]),
                     lo=prob.lo, hi=prob.hi)


def fresh_d(t):
    """The reduced costs of a fresh price, leaving the kept ones in place."""
    kept, fresh = t.d.copy(), t.fresh
    t.price()
    d = t.d
    t.d, t.fresh = kept, fresh
    return d


def assert_dual_feasible(prob, sol):
    """Factored and priced afresh, ``sol``'s basis offers no movable
    nonbasic column that would improve the objective."""
    t = _Tableau(prob)
    assert t.warm_start(LpStart(basis=sol.basis, col_status=sol.col_status))
    t.price(np.concatenate([prob.c, np.zeros(t.n_cols - prob.n)]))
    tol = OPT_TOL * (1.0 + np.max(np.abs(prob.c)))
    ne = t.n_enter
    state = t.status[:ne]
    wrong = (((state == _AT_LO) & (t.d < -tol))
             | ((state == _AT_HI) & (t.d > tol)))
    assert not np.any(wrong & (t.hi[:ne] > t.lo[:ne]))


def check_every_pivot(rng, monkeypatch, check):
    """Run ``check(t)`` after every pivot of six cold sparse LPs of 150
    columns and three warm children of each: pivots of the primal loop,
    among its bound flips, of the dual loop, and across the refactorization
    every 100 pivots."""
    seen = {"pivots": 0, "refactors": 0}
    pivot = _Tableau.pivot

    def checked_pivot(t, *args):
        pivot(t, *args)
        seen["pivots"] += 1
        seen["refactors"] += t.since_refactor == 0
        check(t)

    monkeypatch.setattr(_Tableau, "pivot", checked_pivot)
    flips = dual = most = 0
    for _ in range(6):
        m_eq, m_le = int(rng.integers(0, 10)), int(rng.integers(60, 100))
        prob = sparse_lp(rng, 150, m_eq, m_le)
        before = seen["pivots"]
        sol = solve_lp(prob)
        assert sol.status is LpStatus.OPTIMAL
        pivots = seen["pivots"] - before
        flips += sol.iterations - pivots
        most = max(most, pivots)
        for _ in range(3):
            child = child_lp(rng, prob, sol.x)
            warm = solve_lp(child, start=remap_start(sol, 150, m_eq,
                                                     child.b_le.size))
            assert warm.warm
            dual += warm.dual_iterations
    assert most > 100 and seen["refactors"] >= 1
    assert flips >= 50 and dual >= 30


def test_kept_reduced_costs_match_fresh_price(rng, monkeypatch):
    """After every pivot, the reduced costs kept by the update d -= theta_d
    alpha equal a fresh price to OPT_TOL times the cost scale; the
    refactorization every 100 pivots prices afresh."""
    def check(t):
        assert t.fresh == (t.since_refactor == 0)  # updated, not re-priced
        scale = 1.0 + np.max(np.abs(t.cost))
        assert np.max(np.abs(t.d - fresh_d(t))) <= OPT_TOL * scale

    check_every_pivot(rng, monkeypatch, check)


def test_dual_weights_match_row_norms(rng, monkeypatch):
    """After every pivot, the kept dual steepest-edge weights equal the
    squared row norms of B^-1 to a relative 1e-8; the refactorization every
    100 pivots computes them afresh, exact to summation order."""
    def check(t):
        rtol = 1e-14 if t.since_refactor == 0 else 1e-8
        np.testing.assert_allclose(t.beta, np.sum(t.binv ** 2, axis=1),
                                   rtol=rtol, atol=0.0)

    check_every_pivot(rng, monkeypatch, check)


def test_optimal_only_on_fresh_price(rng):
    """Every OPTIMAL solution, cold or warm, has a basis that a fresh price
    finds dual feasible."""
    optimal = {False: 0, True: 0}
    for i in range(60):
        prob = (sparse_lp(rng, 120, int(rng.integers(0, 6)),
                          int(rng.integers(20, 40)))
                if i % 4 == 0 else random_lp(rng))
        sol = solve_lp(prob)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        child = child_lp(rng, prob, sol.x)
        warm = solve_lp(child, start=remap_start(sol, prob.n, prob.b_eq.size,
                                                 child.b_le.size))
        for p, s in ((prob, sol), (child, warm)):
            if s.status is LpStatus.OPTIMAL:
                assert_dual_feasible(p, s)
                optimal[s.warm] += 1
    assert optimal[False] >= 30 and optimal[True] >= 20


def test_false_optimum_is_repriced(rng, monkeypatch):
    """Zeroing the kept d after each pivot makes the basis look optimal;
    the primal loop prices afresh before it returns, and so reaches the
    optimum of an unpatched solve, with one extra price per pivot."""
    counts = {"price": 0, "pivot": 0}
    pivot, price = _Tableau.pivot, _Tableau.price

    def zeroing_pivot(t, *args):
        pivot(t, *args)
        counts["pivot"] += 1
        if not t.fresh:
            t.d[:] = 0.0

    def counted_price(t, *args):
        counts["price"] += 1
        return price(t, *args)

    for i in range(30):
        prob = (sparse_lp(rng, 120, int(rng.integers(0, 6)),
                          int(rng.integers(20, 40)))
                if i % 3 == 0 else random_lp(rng, n=int(rng.integers(4, 9))))
        ref = solve_lp(prob)
        counts.update(price=0, pivot=0)
        with monkeypatch.context() as mp:
            mp.setattr(_Tableau, "pivot", zeroing_pivot)
            mp.setattr(_Tableau, "price", counted_price)
            sol = solve_lp(prob)
        assert sol.status is ref.status
        if sol.status is LpStatus.OPTIMAL:
            assert sol.objective == pytest.approx(ref.objective, rel=1e-9,
                                                  abs=1e-9)
            assert_dual_feasible(prob, sol)
        assert counts["price"] >= counts["pivot"]
