import numpy as np
import pytest

from ucsm.dcopf import SEGMENTS, DcopfStatus, check_feasibility, solve_dcopf
from ucsm.errors import DimensionMismatch
from ucsm.grid import build_matrices
from ucsm.scenarios import build_scenarios
from ucsm.tsuc import TsucInstance, TsucMode, _dispatch_lp, build_milp


def test_wind_length_mismatch(tiny_case):
    with pytest.raises(DimensionMismatch, match="expected 1 wind values"):
        solve_dcopf(tiny_case, np.array([1.0, 2.0]), tiny_case.loads)


def test_balance_holds(tiny_case):
    res = solve_dcopf(tiny_case, np.array([10.0]), tiny_case.loads)
    assert res.status is DcopfStatus.OPTIMAL
    total = res.dispatch.sum() + 10.0
    assert total == pytest.approx(tiny_case.loads.sum(), abs=1e-7)


def test_dispatch_within_capability(tiny_case):
    res = solve_dcopf(tiny_case, np.array([8.0]), tiny_case.loads)
    for g, p in zip(tiny_case.generators, res.dispatch):
        assert g.p_min - 1e-7 <= p <= g.p_max + 1e-7


def test_constrained_respects_line_limits():
    from tests.conftest import make_tiny_case
    case = make_tiny_case(line_limit=25.0)
    res = solve_dcopf(case, np.array([0.0]), case.loads)
    if res.status is DcopfStatus.OPTIMAL:
        assert np.all(np.abs(res.flows) <= case.line_limits + 1e-6)


def test_relaxed_can_violate_limits():
    from tests.conftest import make_tiny_case
    case = make_tiny_case(line_limit=10.0)
    res = solve_dcopf(case, np.array([0.0]), case.loads, enforce_limits=False)
    assert res.status is DcopfStatus.OPTIMAL
    # With a 10 MW limit on line 1-2 and 75 MW of load, the cheap unit's
    # unconstrained dispatch overloads the network.
    label = check_feasibility(case, res.flows)
    assert label.value == -1


def test_relaxed_cost_lower_or_equal(tiny_case):
    from tests.conftest import make_tiny_case
    case = make_tiny_case(line_limit=28.0)
    wind = np.array([5.0])
    con = solve_dcopf(case, wind, case.loads)
    rel = solve_dcopf(case, wind, case.loads, enforce_limits=False)
    assert rel.status is DcopfStatus.OPTIMAL
    if con.status is DcopfStatus.OPTIMAL:
        assert rel.objective <= con.objective + 1e-6


def test_nodal_balance_residuals(tiny_case, rng):
    mats = build_matrices(tiny_case)
    for _ in range(20):
        wind = rng.uniform(0.0, 15.0, size=1)
        loads = tiny_case.loads * rng.uniform(0.7, 1.3)
        res = solve_dcopf(tiny_case, wind, loads, mats=mats)
        if res.status is not DcopfStatus.OPTIMAL:
            continue
        inj = -loads
        for wi, w in enumerate(tiny_case.wind_units):
            inj[tiny_case.bus_index(w.bus)] += wind[wi]
        for gi, g in enumerate(tiny_case.generators):
            inj[tiny_case.bus_index(g.bus)] += res.dispatch[gi]
        residual = mats.b_matrix @ res.angles * tiny_case.base_mva - inj
        assert np.max(np.abs(residual)) <= 1e-6


def test_infeasible_when_load_exceeds_capacity(tiny_case):
    huge = tiny_case.loads + 500.0
    res = solve_dcopf(tiny_case, np.array([0.0]), huge)
    assert res.status is DcopfStatus.INFEASIBLE
    assert res.objective == np.inf


def test_check_feasibility_labels(tiny_case):
    ok = check_feasibility(tiny_case, np.array([10.0, -20.0, 5.0]))
    assert ok.value == 1
    assert ok.worst_violation == 0.0
    assert ok.violating_lines == []

    bad = check_feasibility(tiny_case, np.array([130.0, -20.0, -121.0]))
    assert bad.value == -1
    assert bad.worst_violation == pytest.approx(10.0)
    assert bad.violating_lines == [0, 2]


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
                milp, np.ones((case.n_gens, 1), dtype=int), 0)
            res = solve_dcopf(case, scen[0].wind_mw[:, 0],
                              scen[0].loads(case)[:, 0])
            assert feasible is (res.status is DcopfStatus.OPTIMAL)
            if not feasible:
                continue
            solved += 1
            fixed = sum(g.c0 + cv.base_value
                        for g, cv in zip(case.generators, milp.curves))
            assert cost + fixed == pytest.approx(res.objective, rel=1e-12)
            np.testing.assert_allclose(p[:, 0], res.dispatch, rtol=1e-12,
                                       atol=1e-9)
    assert solved
