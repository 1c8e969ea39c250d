import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ucsm import tsuc
from ucsm.errors import FeatureMismatch, TooLarge
from ucsm.grid import build_matrices, load_bundled_case
from ucsm.pwl import pwl_cost
from ucsm.scenarios import build_scenarios, feature_vector
from ucsm.simplex import LpSolution, LpStatus, solve_lp
from ucsm.svm import Hyperplane, model_from_text
from ucsm.tsuc import (FLOW_TOL_MW, SURROGATE_TOL, TsucInstance, TsucMode,
                       TsucStatus, brute_force_tsuc, build_milp,
                       constraint_counts, minimal_transitions,
                       schedule_is_logical, solve_tsuc)
from tests.conftest import make_tiny_case


def make_hyperplane(case, w_p=None, bias=500.0) -> Hyperplane:
    """A permissive halfspace in the case's physical feature layout."""
    n_w, n_g = case.n_wind, case.n_gens
    w = np.zeros(2 * n_w + n_g)
    if w_p is not None:
        w[2 * n_w:] = w_p
    return Hyperplane(weights_scaled=w.copy(), bias_scaled=bias,
                      weights_physical=w, bias_physical=bias,
                      feature_names=tuple(case.feature_names()))


def test_constraint_counts_paper_arithmetic():
    small = constraint_counts(80, 20, 24)
    assert small["full_rows"] == 76_800
    assert small["surrogate_rows"] == 480
    assert small["reduction_pct"] == pytest.approx(99.375, abs=1e-9)
    large = constraint_counts(186, 50, 24)
    assert large["full_rows"] == 446_400
    assert large["surrogate_rows"] == 1_200
    assert large["reduction_pct"] == pytest.approx(100.0 * (1 - 1200 / 446400))


def test_minimal_transitions():
    u = np.array([[0, 1, 1, 0], [1, 1, 0, 1]])
    u0 = np.array([0, 1])
    y, z = minimal_transitions(u, u0)
    np.testing.assert_array_equal(y, [[0, 1, 0, 0], [0, 0, 0, 1]])
    np.testing.assert_array_equal(z, [[0, 0, 0, 1], [0, 0, 1, 0]])


def test_schedule_logic_window(tiny_case):
    # Unit 0 has min_up=2: a single-hour burn violates the window.
    u_bad = np.array([[0, 1, 0, 0], [0, 0, 0, 0]])
    u_ok = np.array([[0, 1, 1, 0], [0, 0, 0, 0]])
    u0 = np.zeros(2, dtype=int)
    assert not schedule_is_logical(tiny_case, u_bad, u0)
    assert schedule_is_logical(tiny_case, u_ok, u0)


def _logical_reference(case, u, u0) -> bool:
    """Min-up/min-down as a window check: every switch-on holds for the
    unit's min-up hours and every switch-off for its min-down hours, both
    cut at the horizon."""
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


def test_schedule_logic_is_the_repair_fixpoint():
    """On random schedules of the bundled cases' units with random min-up
    and min-down times, ``schedule_is_logical`` agrees with the window
    check, and every repaired schedule passes the window check."""
    rng = np.random.default_rng(17)
    cases = [load_bundled_case(n) for n in ("ring3", "sixbus", "grid24")]
    logical = 0
    for _ in range(3000):
        base = cases[rng.integers(len(cases))]
        case = replace(base, generators=tuple(
            replace(g, min_up=int(rng.integers(1, 5)),
                    min_down=int(rng.integers(1, 5)))
            for g in base.generators))
        T = int(rng.integers(1, 7))
        u0 = rng.integers(0, 2, size=case.n_gens)
        u = rng.integers(0, 2, size=(case.n_gens, T))
        expected = _logical_reference(case, u, u0)
        assert schedule_is_logical(case, u, u0) == expected
        assert _logical_reference(case, tsuc._repair_schedule(case, u, u0), u0)
        logical += expected
    assert 0 < logical < 3000


def test_feature_vector_layout(tiny_case):
    scen = build_scenarios(tiny_case, 1, 3, 0)[0]
    phi = feature_vector(scen.mu, scen.sigma, np.array([55.0, 12.0]))
    assert phi.size == 4
    np.testing.assert_allclose(phi[:1], scen.mu)
    np.testing.assert_allclose(phi[1:2], scen.sigma)
    np.testing.assert_allclose(phi[2:], [55.0, 12.0])


def test_node_lp_pins_fixings_by_bounds():
    """Branching pins each fixed column by lo == hi and adds no row: at any
    depth the node LP's <= rows are the eager rows plus the lazy pool, and
    the pool holds each capacity or line row once (line 1-2 at 40 MW binds
    after the first fixing)."""
    case = make_tiny_case(line_limit=40.0)
    scens = build_scenarios(case, 2, 3, 5)
    milp = build_milp(TsucInstance(case, scens, 3, TsucMode.FULL_NETWORK,
                                   pwl_segments=3))
    eager = milp.b_le.size  # the pool's rows are appended after these
    fix = ()
    for col, val in ((None, None), (0, 1), (3, 0), (1, 1)):
        if col is not None:
            fix += ((col, val),)
        lp = milp.lp_problem(fix)
        pooled = milp.b_le.size - eager
        assert lp.b_le.size == eager + pooled
        assert pooled == milp.cap_on.sum() + milp.row_on.sum()
        pinned = np.zeros(milp.ncols, dtype=bool)
        for j, v in fix:
            assert lp.lo[j] == lp.hi[j] == v
            pinned[j] = True
        np.testing.assert_array_equal(lp.lo[~pinned], milp.lo[~pinned])
        np.testing.assert_array_equal(lp.hi[~pinned], milp.hi[~pinned])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        milp.add_violated_rows(sol.x)
        assert milp.add_violated_rows(sol.x) == 0  # each row pooled once
        assert milp.b_le.size - eager == milp.cap_on.sum() + milp.row_on.sum()
    assert milp.cap_on.any() and milp.row_on.any()  # both families pooled


def test_full_matches_brute_force(tiny_case):
    scens = build_scenarios(tiny_case, 2, 3, 5)
    inst = TsucInstance(tiny_case, scens, 3, TsucMode.FULL_NETWORK,
                        pwl_segments=3)
    got = solve_tsuc(inst)
    ref = brute_force_tsuc(inst)
    assert got.status is TsucStatus.OPTIMAL
    assert got.objective == pytest.approx(ref.objective, rel=1e-6)


def test_node_limit_keeps_open_bound_in_gap(tiny_case, monkeypatch):
    """Stopped at the root, the search still reports the root's bound:
    the open node stays in the gap."""
    scens = build_scenarios(tiny_case, 2, 4, 2)
    inst = TsucInstance(tiny_case, scens, 4, TsucMode.FULL_NETWORK,
                        pwl_segments=4)
    assert solve_tsuc(inst).stats.nodes > 1
    monkeypatch.setattr(tsuc, "MAX_NODES", 1)
    sol = solve_tsuc(inst)
    assert sol.status is TsucStatus.NODE_LIMIT
    assert sol.stats.gap > 1e-6


def test_fuzzed_oracle_equivalence(rng):
    """Both modes against the oracle; the surrogate halfspace caps unit 0
    at 40 MW, so its rows bind."""
    matches = {TsucMode.FULL_NETWORK: 0, TsucMode.SURROGATE: 0}
    for _ in range(8):
        case = make_tiny_case(line_limit=float(rng.uniform(40, 90)))
        scens = build_scenarios(case, int(rng.integers(1, 3)),
                                3, int(rng.integers(10_000)))
        capped = make_hyperplane(case, w_p=np.array([-1.0, 0.0]), bias=40.0)
        for mode, hyperplane in ((TsucMode.FULL_NETWORK, None),
                                 (TsucMode.SURROGATE, capped)):
            inst = TsucInstance(case, scens, 3, mode, hyperplane=hyperplane,
                                pwl_segments=3)
            got = solve_tsuc(inst)
            ref = brute_force_tsuc(inst)
            assert got.status is ref.status
            if got.status is TsucStatus.OPTIMAL:
                assert got.objective == pytest.approx(ref.objective, rel=1e-6)
                matches[mode] += 1
    assert min(matches.values()) >= 4


def test_solution_invariants_full(tiny_case):
    scens = build_scenarios(tiny_case, 2, 4, 1)
    inst = TsucInstance(tiny_case, scens, 4, TsucMode.FULL_NETWORK,
                        pwl_segments=4)
    sol = solve_tsuc(inst)
    assert sol.status is TsucStatus.OPTIMAL
    u, p = sol.schedule.u, sol.dispatch
    assert set(np.unique(u)) <= {0, 1}
    assert schedule_is_logical(tiny_case, u, inst.initial_status)
    pmin = np.array([g.p_min for g in tiny_case.generators])
    pmax = np.array([g.p_max for g in tiny_case.generators])
    for s in range(2):
        assert np.all(p[:, s, :] >= pmin[:, None] * u - 1e-6)
        assert np.all(p[:, s, :] <= pmax[:, None] * u + 1e-6)
        dp = np.diff(p[:, s, :], axis=1)
        ru = np.array([g.ramp_up for g in tiny_case.generators])
        rd = np.array([g.ramp_down for g in tiny_case.generators])
        assert np.all(dp <= ru[:, None] + 1e-6)
        assert np.all(-dp <= rd[:, None] + 1e-6)
    # Line limits via the returned angles.
    mats = build_matrices(tiny_case)
    for s in range(2):
        for t in range(4):
            theta = sol.angles[:, s, t]
            assert theta[tiny_case.ref_index] == pytest.approx(0.0)
            flows = np.array([
                (theta[tiny_case.bus_index(ln.from_bus)]
                 - theta[tiny_case.bus_index(ln.to_bus)])
                / ln.reactance_x * tiny_case.base_mva
                for ln in tiny_case.lines
            ])
            assert np.all(np.abs(flows) <= tiny_case.line_limits + 1e-5)


def test_nodal_balance_from_angles(tiny_case):
    scens = build_scenarios(tiny_case, 2, 3, 3)
    inst = TsucInstance(tiny_case, scens, 3, TsucMode.FULL_NETWORK,
                        pwl_segments=3)
    sol = solve_tsuc(inst)
    mats = build_matrices(tiny_case)
    for s, scen in enumerate(scens):
        loads = scen.loads(tiny_case)
        for t in range(3):
            inj = -loads[:, t].copy()
            for wi, w in enumerate(tiny_case.wind_units):
                inj[tiny_case.bus_index(w.bus)] += scen.wind_mw[wi, t]
            for gi, g in enumerate(tiny_case.generators):
                inj[tiny_case.bus_index(g.bus)] += sol.dispatch[gi, s, t]
            residual = (mats.b_matrix @ sol.angles[:, s, t]
                        * tiny_case.base_mva - inj)
            assert np.max(np.abs(residual)) <= 1e-6


def test_surrogate_mode_requires_hyperplane(tiny_case):
    scens = build_scenarios(tiny_case, 1, 2, 0)
    with pytest.raises(ValueError):
        TsucInstance(tiny_case, scens, 2, TsucMode.SURROGATE)


@pytest.mark.parametrize("u0", [[0.5] * 3, [2] * 3, [1]],
                         ids=["fractional", "two", "length-1"])
def test_instance_rejects_bad_initial_status(sixbus, u0):
    """A fractional or non-binary u_0, or one of the wrong length, is an
    input error, not an LP that solves to a fractional u_0, to INFEASIBLE
    or to an IndexError inside solve_tsuc."""
    assert sixbus.n_gens == 3
    scens = build_scenarios(sixbus, 1, 2, 0)
    with pytest.raises(ValueError, match="initial_status"):
        TsucInstance(sixbus, scens, 2, TsucMode.FULL_NETWORK,
                     initial_status=u0)


@pytest.mark.parametrize("gap_tol", [float("nan"), -0.5])
def test_solve_rejects_bad_gap_tol(tiny_case, gap_tol):
    """A NaN or negative gap would stop the search early or late."""
    scens = build_scenarios(tiny_case, 1, 2, 0)
    inst = TsucInstance(tiny_case, scens, 2, TsucMode.FULL_NETWORK)
    with pytest.raises(ValueError, match="gap_tol"):
        solve_tsuc(inst, gap_tol=gap_tol)


def test_surrogate_feature_mismatch(tiny_case, sixbus):
    scens = build_scenarios(tiny_case, 1, 2, 0)
    wrong = make_hyperplane(sixbus)
    inst = TsucInstance(tiny_case, scens, 2, TsucMode.SURROGATE,
                        hyperplane=wrong)
    with pytest.raises(FeatureMismatch):
        solve_tsuc(inst)


def test_permissive_surrogate_matches_unconstrained(tiny_case):
    """A huge-bias halfspace binds nowhere, so the surrogate optimum equals
    the full optimum with line limits effectively removed."""
    relaxed = make_tiny_case(line_limit=10_000.0)
    scens = build_scenarios(tiny_case, 2, 3, 2)
    sur = solve_tsuc(TsucInstance(tiny_case, scens, 3, TsucMode.SURROGATE,
                                  hyperplane=make_hyperplane(tiny_case),
                                  pwl_segments=3))
    ref = solve_tsuc(TsucInstance(relaxed, scens, 3, TsucMode.FULL_NETWORK,
                                  pwl_segments=3))
    assert sur.status is TsucStatus.OPTIMAL
    assert sur.objective == pytest.approx(ref.objective, rel=1e-6)


def test_restrictive_surrogate_costs_more(tiny_case):
    """A binding halfspace (cap on one unit's output) raises the optimum."""
    scens = build_scenarios(tiny_case, 2, 3, 2)
    free = solve_tsuc(TsucInstance(tiny_case, scens, 3, TsucMode.SURROGATE,
                                   hyperplane=make_hyperplane(tiny_case),
                                   pwl_segments=3))
    capped = solve_tsuc(TsucInstance(
        tiny_case, scens, 3, TsucMode.SURROGATE,
        hyperplane=make_hyperplane(tiny_case, w_p=np.array([-1.0, 0.0]),
                                   bias=40.0),
        pwl_segments=3))
    assert capped.status is TsucStatus.OPTIMAL
    assert capped.objective >= free.objective - 1e-6
    # The cap itself holds in the returned dispatch.
    assert np.all(capped.dispatch[0] <= 40.0 + 1e-6)


def test_tightening_limits_never_cheaper(tiny_case):
    scens = build_scenarios(tiny_case, 2, 3, 4)
    base = solve_tsuc(TsucInstance(tiny_case, scens, 3, TsucMode.FULL_NETWORK,
                                   pwl_segments=3))
    tight_case = make_tiny_case(line_limit=30.0)
    tight = solve_tsuc(TsucInstance(tight_case, scens, 3,
                                    TsucMode.FULL_NETWORK, pwl_segments=3))
    if tight.status is TsucStatus.OPTIMAL:
        assert tight.objective >= base.objective - 1e-9
    assert base.status is TsucStatus.OPTIMAL


def test_root_bound_below_incumbent(tiny_case):
    scens = build_scenarios(tiny_case, 1, 3, 6)
    inst = TsucInstance(tiny_case, scens, 3, TsucMode.FULL_NETWORK,
                        pwl_segments=3)
    sol = solve_tsuc(inst)
    assert sol.stats.gap <= 1e-6
    assert sol.stats.nodes >= 1
    assert sol.stats.lp_solves >= sol.stats.nodes


def test_lp_iterations_sum_every_lp(sixbus, tiny_case, monkeypatch):
    """``lp_iterations`` is the sum of ``LpSolution.iterations`` over every
    LP the solve runs. ``solve_tsuc`` gives every LP a start, node LPs and
    the heuristic's dispatch LPs alike; the oracle's dispatch LPs solve
    cold."""
    seen = []

    def spy(*args, **kwargs):
        sol = solve_lp(*args, **kwargs)
        seen.append((kwargs.get("start") is not None, sol.iterations))
        return sol

    monkeypatch.setattr(tsuc, "solve_lp", spy)
    full = TsucInstance(sixbus, build_scenarios(sixbus, 3, 4, 0), 4,
                        TsucMode.FULL_NETWORK, pwl_segments=3)
    tiny = TsucInstance(tiny_case, build_scenarios(tiny_case, 1, 3, 6), 3,
                        TsucMode.FULL_NETWORK, pwl_segments=3)
    for solve, inst, kinds in ((solve_tsuc, full, {True}),
                               (brute_force_tsuc, tiny, {False})):
        seen.clear()
        sol = solve(inst)
        assert {started for started, _ in seen} == kinds
        assert sol.stats.lp_solves == len(seen)
        assert sol.stats.lp_iterations == sum(it for _, it in seen) > 0


def test_node_lps_never_fall_back_to_cold(grid24, monkeypatch):
    """At the uc-gap shape (S=5, T=12, K=4, 2% gap) every LP solves from
    the start it is given, in full mode and under a halfspace trained on
    grid24 that weights every unit: each node LP, the root's first round
    from the slack basis and each later round or child from its
    predecessor, and each heuristic dispatch LP, the first from the slack
    basis and each later one from the last optimal one."""
    w = np.array([0.018887562143126375, 0.0012199448061496702,
                  0.021455786685244414, 0.0337488653383837,
                  -0.03877592045992022, 0.06659078148767143,
                  -0.46731255335687916, 0.19978089784735553, 0.0, 0.0])
    hp = Hyperplane(weights_scaled=w.copy(), bias_scaled=15.707377572017467,
                    weights_physical=w, bias_physical=15.707377572017467,
                    feature_names=tuple(grid24.feature_names()))
    starts = []

    def spy(*args, **kwargs):
        sol = solve_lp(*args, **kwargs)
        starts.append(kwargs.get("start") is not None and sol.warm)
        return sol

    monkeypatch.setattr(tsuc, "solve_lp", spy)
    scens = build_scenarios(grid24, 5, 12, 0)
    for mode, model in ((TsucMode.FULL_NETWORK, None),
                        (TsucMode.SURROGATE, hp)):
        starts.clear()
        sol = solve_tsuc(TsucInstance(grid24, scens, 12, mode,
                                      hyperplane=model, pwl_segments=4),
                         gap_tol=0.02)
        assert sol.status is TsucStatus.OPTIMAL
        assert sol.stats.cold_fallbacks == 0
        assert all(starts) and len(starts) == sol.stats.lp_solves


def test_chained_dispatch_lps_match_cold(grid24, rng, monkeypatch):
    """The heuristic's dispatch LPs, the first from the slack basis and each
    later one from the last optimal one, give cold solves' statuses and
    objectives. After ``solve_tsuc``, random repaired schedules are priced
    in sequence on its MILP, dispatchable ones interleaved with ones that
    are not; in full mode and under a halfspace that caps unit 0 at
    150 MW, so its rows bind. No LP runs a primal phase 1."""
    G, T, K = grid24.n_gens, 6, 3
    milps, seen = [], []

    def keep(*args):
        milps.append(build_milp(*args))
        return milps[-1]

    def spy(problem, **kwargs):
        sol = solve_lp(problem, **kwargs)
        if problem.n == G * T * K:  # a dispatch LP, not a node LP
            seen.append((problem, sol))
        return sol

    monkeypatch.setattr(tsuc, "build_milp", keep)
    monkeypatch.setattr(tsuc, "solve_lp", spy)
    capped = make_hyperplane(grid24, w_p=-np.eye(G)[0], bias=150.0)
    statuses = set()
    for mode, hyperplane in ((TsucMode.FULL_NETWORK, None),
                             (TsucMode.SURROGATE, capped)):
        inst = TsucInstance(grid24, build_scenarios(grid24, 3, T, 5), T,
                            mode, hyperplane=hyperplane, pwl_segments=K)
        milps.clear()
        seen.clear()
        assert solve_tsuc(inst, gap_tol=0.02).status is TsucStatus.OPTIMAL
        for i in range(16):
            u = (rng.random((G, T)) < (0.9 if i % 2 else 0.3)).astype(int)
            u = tsuc._repair_schedule(grid24, u, inst.initial_status)
            tsuc._price_schedule(milps[0], u, tsuc.SolveStats())
        for problem, sol in seen:
            cold = solve_lp(problem)
            assert sol.status is cold.status
            statuses.add(sol.status)
            if sol.status is LpStatus.OPTIMAL:
                assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
            assert sol.warm and sol.phase1_iterations == 0
    assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}


def test_dispatch_lp_resolves_cold_without_a_certificate(sixbus, monkeypatch):
    """A warm dispatch LP that stops at the iteration limit does not reject
    its schedule: it is solved again cold, counted as a cold fallback, and
    the schedule is priced at the cold objective."""
    def stalls_warm(problem, *, start=None):
        if start is None:
            return solve_lp(problem)
        return LpSolution(LpStatus.ITERATION_LIMIT, np.zeros(problem.n),
                          np.nan, 7, warm=True)

    inst = TsucInstance(sixbus, build_scenarios(sixbus, 3, 4, 0), 4,
                        TsucMode.FULL_NETWORK, pwl_segments=3)
    u = np.ones((sixbus.n_gens, 4), dtype=int)
    cold = tsuc._price_schedule(build_milp(inst), u, tsuc.SolveStats())
    assert cold is not None
    monkeypatch.setattr(tsuc, "solve_lp", stalls_warm)
    milp, stats = build_milp(inst), tsuc.SolveStats()
    milp.dispatch_start = tsuc.slack_start(milp.d_idx[:, 0].size, 4,
                                           milp.row_tol.size)
    priced = tsuc._price_schedule(milp, u, stats)
    assert priced is not None and priced[0] == cold[0]
    np.testing.assert_array_equal(priced[2], cold[2])
    assert stats.cold_fallbacks == 3 and stats.lp_solves == 6


def test_deterministic_objective(tiny_case):
    scens = build_scenarios(tiny_case, 2, 3, 8)
    inst = TsucInstance(tiny_case, scens, 3, TsucMode.FULL_NETWORK,
                        pwl_segments=3)
    a = solve_tsuc(inst)
    b = solve_tsuc(inst)
    assert a.objective == b.objective
    np.testing.assert_array_equal(a.schedule.u, b.schedule.u)
    np.testing.assert_array_equal(a.dispatch, b.dispatch)


def test_brute_force_size_guard(tiny_case):
    scens = build_scenarios(tiny_case, 1, 12, 0)
    inst = TsucInstance(tiny_case, scens, 12, TsucMode.FULL_NETWORK)
    with pytest.raises(TooLarge):
        brute_force_tsuc(inst)


def test_infeasible_instance_reported(tiny_case):
    """Demand far above total capability has no feasible commitment."""
    scens = build_scenarios(tiny_case, 1, 2, 0)
    big = [s.loads(tiny_case) for s in scens]
    # Scale loads through the multiplier to exceed pmax sum + wind.
    from dataclasses import replace
    scens = [replace(s, load_multiplier=s.load_multiplier * 50.0)
             for s in scens]
    inst = TsucInstance(tiny_case, scens, 2, TsucMode.FULL_NETWORK,
                        pwl_segments=2)
    sol = solve_tsuc(inst)
    assert sol.status is TsucStatus.INFEASIBLE
    assert sol.objective == np.inf
    assert big  # silence unused warning


def _reference_rows(milp, x):
    """The MILP's arrays and the rows pooled for x, built one row at a time
    from the column layout u(g, t) = t*G + g, y = n_u + u, z = 2*n_u + u,
    delta(g, s, t) = 3*n_u + ((s*T + t)*G + g)*K + k."""
    inst, case = milp.inst, milp.inst.case
    G, S, T, K = milp.G, milp.S, milp.T, milp.K
    n_u = G * T
    ncols = 3 * n_u + G * S * T * K
    pmin, pmax = milp.pmin, milp.pmax

    def u_col(g, t):
        return t * G + g

    def d_cols(g, s, t):
        base = 3 * n_u + ((s * T + t) * G + g) * K
        return slice(base, base + K)

    def p_row(coef, s):  # coef over the hour-major dispatch p_s[t*G + g]
        row = np.zeros(ncols)
        for g in range(G):
            for t in range(T):
                row[u_col(g, t)] = coef[t * G + g] * pmin[g]
                row[d_cols(g, s, t)] = coef[t * G + g]
        return row

    ref = {"c": np.zeros(ncols), "lo": np.zeros(ncols), "hi": np.ones(ncols)}
    pi = [s.probability for s in inst.scenarios]
    for g, gen in enumerate(case.generators):
        curve = pwl_cost(gen, inst.pwl_segments)
        for t in range(T):
            ref["c"][u_col(g, t)] = gen.c0 + curve.base_value
            ref["c"][n_u + u_col(g, t)] = gen.startup_cost
            ref["c"][2 * n_u + u_col(g, t)] = gen.shutdown_cost
            for s in range(S):
                ref["c"][d_cols(g, s, t)] = pi[s] * curve.slopes
                ref["hi"][d_cols(g, s, t)] = curve.widths

    a_le, b_le = [], []
    u0 = inst.initial_status
    for g in range(G):
        for t in range(T):
            for sign, off in ((1.0, n_u), (-1.0, 2 * n_u)):
                row = np.zeros(ncols)
                row[u_col(g, t)] = sign
                row[off + u_col(g, t)] = -1.0
                if t:
                    row[u_col(g, t - 1)] = -sign
                a_le.append(row)
                b_le.append(sign * float(u0[g]) if t == 0 else 0.0)
    # Rajan-Takriti rows per (g, t, j): the y (j = 0) or z (j = 1) of the
    # last min_up or min_down hours, cut at hour 0, against u_t.
    for g, gen in enumerate(case.generators):
        for t in range(T):
            for off, span, coef, rhs in ((n_u, gen.min_up, -1.0, 0.0),
                                         (2 * n_u, gen.min_down, 1.0, 1.0)):
                row = np.zeros(ncols)
                for tau in range(max(t - span + 1, 0), t + 1):
                    row[off + u_col(g, tau)] = 1.0
                row[u_col(g, t)] = coef
                a_le.append(row)
                b_le.append(rhs)
    for g in range(G):
        for t in range(T):
            row = np.zeros(ncols)
            for s in range(S):
                row[d_cols(g, s, t)] = 1.0
            row[u_col(g, t)] = -S * (pmax[g] - pmin[g])
            a_le.append(row)
            b_le.append(0.0)
    a_eq, b_eq = [], []
    for s in range(S):
        for t in range(T):
            hour = np.zeros(n_u)
            hour[t * G:(t + 1) * G] = 1.0
            a_eq.append(p_row(hour, s))
            b_eq.append(milp.load_total[s, t] - milp.wind_total[s, t])
    ref.update(a_le=np.array(a_le), b_le=np.array(b_le),
               a_eq=np.array(a_eq), b_eq=np.array(b_eq))

    # Dispatch table over p_s[t*G + g]: ramps per (sign, g, t >= 1), then
    # flows per (sign, line, t) or the halfspace per t.
    coef, rhs, tol = [], [], []

    def add(c, b, eps):
        coef.append(c.ravel())
        rhs.append(np.broadcast_to(b, (S,)))
        tol.append(eps)

    for sign in (1.0, -1.0):
        for g, gen in enumerate(case.generators):
            limit = gen.ramp_up if sign > 0 else gen.ramp_down
            for t in range(1, T):
                c = np.zeros((T, G))
                c[t, g], c[t - 1, g] = sign, -sign
                add(c, float(limit), FLOW_TOL_MW)
    if inst.mode is TsucMode.FULL_NETWORK:
        base = np.einsum("lb,bst->lst", milp.mats.ptdf, milp.inj)
        gcoef = milp.mats.ptdf[:, milp.mats.gen_bus]
        for sign in (1.0, -1.0):
            for li, limit in enumerate(case.line_limits):
                for t in range(T):
                    c = np.zeros((T, G))
                    c[t] = sign * gcoef[li]
                    add(c, limit - sign * base[li, :, t], FLOW_TOL_MW)
    else:
        h, W = inst.hyperplane, case.n_wind
        const = np.array([float(h.weights_physical[:W] @ scen.mu
                                + h.weights_physical[W:2 * W] @ scen.sigma
                                + h.bias_physical)
                          for scen in inst.scenarios])
        for t in range(T):
            c = np.zeros((T, G))
            c[t] = -h.weights_physical[2 * W:]
            add(c, const + SURROGATE_TOL, 0.0)
    ref.update(row_coef=np.array(coef).reshape(-1, T * G),
               row_rhs=np.array(rhs).reshape(-1, S).T, row_tol=np.array(tol))

    # Rows pooled for x: capacity per (g, s, t), then table rows per (s, r).
    p = np.zeros((S, n_u))
    for g in range(G):
        for s in range(S):
            for t in range(T):
                p[s, t * G + g] = (pmin[g] * x[u_col(g, t)]
                                   + x[d_cols(g, s, t)].sum())
    pool_a, pool_b = [], []
    for g in range(G):
        for s in range(S):
            for t in range(T):
                u = x[u_col(g, t)]
                excess = p[s, t * G + g] - pmin[g] * u - (pmax[g] - pmin[g]) * u
                if excess > FLOW_TOL_MW:
                    row = np.zeros(ncols)
                    row[d_cols(g, s, t)] = 1.0
                    row[u_col(g, t)] = -(pmax[g] - pmin[g])
                    pool_a.append(row)
                    pool_b.append(0.0)
    n_cap = len(pool_b)
    viol = p @ ref["row_coef"].T - ref["row_rhs"] > ref["row_tol"]
    for s, r in zip(*np.nonzero(viol)):
        pool_a.append(p_row(ref["row_coef"][r], s))
        pool_b.append(ref["row_rhs"][s, r])
    ref["pool_a"] = np.array(pool_a).reshape(-1, ncols)
    ref["pool_b"] = np.array(pool_b)
    ref["dispatch"] = p.reshape(S, T, G).transpose(2, 0, 1)
    return ref, n_cap


def test_milp_matches_row_rules(grid24, sixbus):
    """Every array the MILP hands the simplex, its dispatch table, and the
    rows it pools for the root LP's x, equal the per-row construction byte
    for byte, row order and the -0.0 right-hand sides of the t = 0 shut-down
    rows included."""
    tiny = make_tiny_case(line_limit=40.0)
    cap = make_hyperplane(tiny, w_p=np.array([-1.0, 0.0]), bias=40.0)
    cases = [
        (tiny, TsucMode.FULL_NETWORK, None, 2, 3, 3, 5, None),
        (tiny, TsucMode.SURROGATE, cap, 2, 3, 3, 5, None),
        (sixbus, TsucMode.FULL_NETWORK, None, 2, 4, 2, 1, None),
        (grid24, TsucMode.FULL_NETWORK, None, 2, 4, 2, 3,
         np.array([1, 0, 1, 1, 0, 1])),
    ]
    pooled = [0, 0]
    for case, mode, hp, S, T, K, seed, u0 in cases:
        inst = TsucInstance(case, build_scenarios(case, S, T, seed), T, mode,
                            hyperplane=hp, pwl_segments=K, initial_status=u0)
        milp = build_milp(inst)
        sol = solve_lp(milp.lp_problem(()))
        assert sol.status is LpStatus.OPTIMAL
        ref, n_cap = _reference_rows(milp, sol.x)
        for name in ("c", "lo", "hi", "a_eq", "b_eq", "a_le", "b_le",
                     "row_coef", "row_rhs", "row_tol"):
            assert getattr(milp, name).tobytes() == ref[name].tobytes(), name
        # Each t = 0 shut-down row reads -u0 on the right: -0.0 when off.
        assert np.signbit(milp.b_le[1:2 * milp.n_u:2 * T]).all()
        assert milp.dispatch_of(sol.x).tobytes() == ref["dispatch"].tobytes()
        eager = milp.b_le.size
        assert milp.add_violated_rows(sol.x) == ref["pool_b"].size
        assert milp.a_le[eager:].tobytes() == ref["pool_a"].tobytes()
        assert milp.b_le[eager:].tobytes() == ref["pool_b"].tobytes()
        pooled[0] += n_cap
        pooled[1] += ref["pool_b"].size - n_cap
    assert pooled[0] and pooled[1]  # both lazy families are compared


def _window_rows(milp):
    """Min-up and min-down as one row per hour of the window after t, cut
    at the horizon: y_t - u_tau <= 0 and z_t + u_tau <= 1."""
    n_u, u = milp.n_u, milp.u_idx
    a_le, b_le = [], []
    for g, gen in enumerate(milp.inst.case.generators):
        for t in range(milp.T):
            for off, span, coef, rhs in ((n_u, gen.min_up, -1.0, 0.0),
                                         (2 * n_u, gen.min_down, 1.0, 1.0)):
                for tau in range(t, min(t + span, milp.T)):
                    row = np.zeros(milp.ncols)
                    row[off + u[g, t]] = 1.0
                    row[u[g, tau]] = coef
                    a_le.append(row)
                    b_le.append(rhs)
    return np.array(a_le), np.array(b_le)


def test_commitment_rows_say_the_repair_rule(sixbus, grid24):
    """On every binary path of sixbus at T = 4, the commitment rows (every
    eager <= row before the aggregated capacity link) hold at (u, its
    minimal transitions) exactly when ``schedule_is_logical`` does. At the
    uc-exact shape, appending the window rows to the root LP changes
    neither its status nor its objective."""
    T = 4
    G = sixbus.n_gens
    paths = np.array(list(itertools.product((0, 1), repeat=G * T))
                     ).reshape(-1, G, T)
    scens = build_scenarios(sixbus, 1, T, 0)
    for u0 in ([0, 0, 0], [1, 1, 1], [1, 0, 1]):
        u0 = np.array(u0)
        milp = build_milp(TsucInstance(sixbus, scens, T, TsucMode.FULL_NETWORK,
                                       initial_status=u0))
        rows = slice(0, 4 * milp.n_u)
        x = np.zeros((len(paths), milp.ncols))
        for u, xi in zip(paths, x):
            for k, v in enumerate((u, *minimal_transitions(u, u0))):
                xi[k * milp.n_u + milp.u_idx] = v
        holds = (x @ milp.a_le[rows].T <= milp.b_le[rows]).all(axis=1)
        logical = [schedule_is_logical(sixbus, u, u0) for u in paths]
        np.testing.assert_array_equal(holds, logical)
        assert 0 < holds.sum() < len(paths)

    model = Path(__file__).resolve().parents[1] / "perfbench/data/grid24.model"
    hyperplane = model_from_text(model.read_text())[0]
    for seed in (1, 2):
        scens = build_scenarios(grid24, 2, 6, seed)
        for mode, hp in ((TsucMode.FULL_NETWORK, None),
                         (TsucMode.SURROGATE, hyperplane)):
            milp = build_milp(TsucInstance(grid24, scens, 6, mode,
                                           hyperplane=hp, pwl_segments=3))
            lp = milp.lp_problem(())
            a_win, b_win = _window_rows(milp)
            both = replace(lp, a_le=np.vstack([lp.a_le, a_win]),
                           b_le=np.concatenate([lp.b_le, b_win]))
            sol, sol_both = solve_lp(lp), solve_lp(both)
            assert sol_both.status is sol.status is LpStatus.OPTIMAL
            assert sol_both.objective == pytest.approx(sol.objective, rel=1e-9)
