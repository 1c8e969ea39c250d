import numpy as np
import pytest

from ucsm.dcopf import (SEGMENTS, check_feasibility, dispatch_problem,
                        dispatch_segments, merit_order_dispatch, solve_dcopf)
from ucsm.errors import DimensionMismatch
from ucsm.grid import build_matrices
from ucsm.pwl import pwl_cost
from ucsm.scenarios import build_scenarios
from ucsm.simplex import FEAS_TOL, LpStatus, solve_lp
from ucsm.tsuc import (SolveStats, TsucInstance, TsucMode, _dispatch_lp,
                       build_milp)


def test_wind_length_mismatch(tiny_case):
    with pytest.raises(DimensionMismatch, match="expected 1 wind values"):
        solve_dcopf(tiny_case, np.array([1.0, 2.0]), tiny_case.loads)


def test_balance_holds(tiny_case):
    res = solve_dcopf(tiny_case, np.array([10.0]), tiny_case.loads)
    assert res.status is LpStatus.OPTIMAL
    total = res.dispatch.sum() + 10.0
    assert total == pytest.approx(tiny_case.loads.sum(), abs=1e-7)


def test_dispatch_within_capability(tiny_case):
    res = solve_dcopf(tiny_case, np.array([8.0]), tiny_case.loads)
    for g, p in zip(tiny_case.generators, res.dispatch):
        assert g.p_min - 1e-7 <= p <= g.p_max + 1e-7


def test_constrained_respects_line_limits():
    from tests.conftest import make_tiny_case
    case = make_tiny_case(line_limit=25.0)
    wind = np.array([0.0])
    res = solve_dcopf(case, wind, case.loads)
    if res.status is LpStatus.OPTIMAL:
        mats = build_matrices(case)
        flows = mats.ptdf @ mats.injection(case.loads, wind, res.dispatch)
        assert np.all(np.abs(flows) <= case.line_limits + 1e-6)


def _relaxed(case, wind, load):
    """The line-limit-free dispatch of one operating point, and its flows."""
    slopes, widths, pmin, _ = dispatch_segments(case)
    dispatch, ok = merit_order_dispatch(
        slopes, widths, pmin, [load.sum() - wind.sum() - pmin.sum()])
    assert ok[0]
    mats = build_matrices(case)
    return dispatch[0], mats.ptdf @ mats.injection(load, wind, dispatch[0])


def test_relaxed_can_violate_limits():
    from tests.conftest import make_tiny_case
    case = make_tiny_case(line_limit=10.0)
    _, flows = _relaxed(case, np.array([0.0]), case.loads)
    # With a 10 MW limit on line 1-2 and 75 MW of load, the cheap unit's
    # unconstrained dispatch overloads the network.
    assert check_feasibility(case, flows) == -1


def test_relaxed_cost_lower_or_equal(tiny_case):
    from tests.conftest import make_tiny_case
    case = make_tiny_case(line_limit=28.0)
    wind = np.array([5.0])
    con = solve_dcopf(case, wind, case.loads)
    dispatch, _ = _relaxed(case, wind, case.loads)
    cost = sum(g.c0 + pwl_cost(g, SEGMENTS).value(p)
               for g, p in zip(case.generators, dispatch))
    if con.status is LpStatus.OPTIMAL:
        assert cost <= con.objective + 1e-6


def _relaxed_lp(slopes, widths, net):
    """The segment LP that merit_order_dispatch replaces: one balance row."""
    G = len(slopes)
    return solve_lp(dispatch_problem(slopes, widths, np.ones((1, G)), [net],
                                     np.zeros((0, G)), np.zeros(0)))


@pytest.mark.parametrize("name", ["tiny", "sixbus", "grid24"])
def test_merit_order_matches_lp(name, tiny_case, sixbus, grid24):
    """Same status as the LP at, inside and past both ends of [0, sum of
    widths], and the same dispatch bytes where it is optimal. The LP's
    tolerance is relative: half of it past the top is still optimal."""
    case = {"tiny": tiny_case, "sixbus": sixbus, "grid24": grid24}[name]
    slopes, widths, pmin, _ = dispatch_segments(case)
    total = widths.sum()
    nets = np.concatenate([
        [-50.0, -1e-12, 0.0, 1e-12], np.linspace(0.0, total, 41)[1:-1],
        [total - 1e-12, total, total + 1e-12, total * (1 + FEAS_TOL / 2),
         total + 50.0]])
    dispatch, ok = merit_order_dispatch(slopes, widths, pmin, nets)
    assert not ok[0] and not ok[-1] and ok[1:-1].all()
    for net, p, feasible in zip(nets, dispatch, ok):
        sol = _relaxed_lp(slopes, widths, net)
        assert (sol.status is LpStatus.OPTIMAL) == feasible, net
        if feasible:
            lp = pmin + sol.x.reshape(-1, SEGMENTS).sum(axis=1)
            assert np.array_equal(p, lp), net


def test_merit_order_tied_slopes_reach_lp_objective():
    """Tied slopes make the optimum non-unique: the fill and the LP split
    some ties differently here, so only their costs must agree."""
    slopes = np.array([[10.0, 20.0, 30.0], [10.0, 30.0, 30.0], [20.0, 20.0, 30.0]])
    widths = np.array([[1.0, 7.0, 6.0], [7.0, 2.0, 1.0], [7.0, 1.0, 5.0]])
    pmin = np.array([1.0, 2.0, 3.0])
    starts = np.cumsum(widths, axis=1) - widths
    moved = 0
    for net in np.linspace(0.0, widths.sum(), 23):
        dispatch, ok = merit_order_dispatch(slopes, widths, pmin, [net])
        assert ok[0]
        fill = np.clip((dispatch[0] - pmin)[:, None] - starts, 0.0, widths)
        sol = _relaxed_lp(slopes, widths, net)
        assert sol.status is LpStatus.OPTIMAL
        assert float(np.sum(slopes * fill)) == pytest.approx(
            sol.objective, rel=1e-12, abs=1e-12)
        moved += not np.allclose(fill.ravel(), sol.x)
    assert moved


def test_nodal_balance_residuals(tiny_case, rng):
    mats = build_matrices(tiny_case)
    for _ in range(20):
        wind = rng.uniform(0.0, 15.0, size=1)
        loads = tiny_case.loads * rng.uniform(0.7, 1.3)
        res = solve_dcopf(tiny_case, wind, loads, mats=mats)
        if res.status is not LpStatus.OPTIMAL:
            continue
        inj = -loads
        for wi, w in enumerate(tiny_case.wind_units):
            inj[tiny_case.bus_index(w.bus)] += wind[wi]
        for gi, g in enumerate(tiny_case.generators):
            inj[tiny_case.bus_index(g.bus)] += res.dispatch[gi]
        theta = mats.angles(mats.injection(loads, wind, res.dispatch))
        residual = mats.b_matrix @ theta * tiny_case.base_mva - inj
        assert np.max(np.abs(residual)) <= 1e-6


def test_infeasible_when_load_exceeds_capacity(tiny_case):
    huge = tiny_case.loads + 500.0
    res = solve_dcopf(tiny_case, np.array([0.0]), huge)
    assert res.status is LpStatus.INFEASIBLE
    assert res.objective == np.inf


def test_check_feasibility_labels(tiny_case):
    assert check_feasibility(tiny_case, np.array([10.0, -20.0, 5.0])) == 1
    assert check_feasibility(tiny_case, np.array([130.0, -20.0, -121.0])) == -1
    # Within the tolerance of a limit is feasible, just past it is not.
    assert check_feasibility(tiny_case, np.array([120.0 + 1e-7, 0.0, 0.0])) == 1
    assert check_feasibility(tiny_case, np.array([120.0 + 1e-5, 0.0, 0.0])) == -1


def test_check_feasibility_labels_each_column(tiny_case, rng):
    """An (L, a, b) or (L, n) flow array gets the label of each column."""
    flows = rng.uniform(-140.0, 140.0, size=(3, 4, 5))
    labels = check_feasibility(tiny_case, flows)
    assert labels.shape == (4, 5)
    assert set(np.unique(labels)) == {-1, 1}
    for i, j in np.ndindex(4, 5):
        assert labels[i, j] == check_feasibility(tiny_case, flows[:, i, j])
    np.testing.assert_array_equal(check_feasibility(tiny_case, flows[:, 0]),
                                  labels[0])


def test_check_feasibility_dimension(tiny_case):
    with pytest.raises(DimensionMismatch):
        check_feasibility(tiny_case, np.zeros(5))


def test_matches_tsuc_dispatch_lp(sixbus, grid24):
    """A constrained DCOPF is the TSUC's dispatch LP for one hour, one
    scenario and every unit on, at the DCOPF's segment count."""
    solved = 0
    for case in (sixbus, grid24):
        for seed in range(40):
            scen = build_scenarios(case, 1, 1, seed)
            milp = build_milp(TsucInstance(case, scen, 1, TsucMode.FULL_NETWORK,
                                           pwl_segments=SEGMENTS))
            feasible, cost, p = _dispatch_lp(
                milp, np.ones((case.n_gens, 1), dtype=int), 0, SolveStats())
            res = solve_dcopf(case, scen[0].wind_mw[:, 0],
                              scen[0].loads(case)[:, 0])
            assert feasible is (res.status is LpStatus.OPTIMAL)
            if not feasible:
                continue
            solved += 1
            fixed = milp.c[milp.u_idx[:, 0]].sum()
            assert cost + fixed == pytest.approx(res.objective, rel=1e-12)
            np.testing.assert_allclose(p[:, 0], res.dispatch, rtol=1e-12,
                                       atol=1e-9)
    assert solved
