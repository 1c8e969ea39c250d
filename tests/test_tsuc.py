import numpy as np
import pytest

from ucsm.errors import FeatureMismatch, TooLarge
from ucsm.grid import build_matrices
from ucsm.scenarios import build_scenarios, feature_vector
from ucsm.simplex import LpStatus, solve_lp
from ucsm.svm import Hyperplane
from ucsm.tsuc import (FLOW_TOL_MW, TsucInstance, TsucMode, TsucStatus,
                       brute_force_tsuc, build_milp, constraint_counts,
                       minimal_transitions, schedule_is_logical, solve_tsuc)
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


def test_node_limit_keeps_open_bound_in_gap(tiny_case):
    """Stopped at the root, the search still reports the root's bound:
    the open node stays in the gap."""
    scens = build_scenarios(tiny_case, 2, 4, 2)
    inst = TsucInstance(tiny_case, scens, 4, TsucMode.FULL_NETWORK,
                        pwl_segments=4)
    assert solve_tsuc(inst).stats.nodes > 1
    sol = solve_tsuc(inst, node_limit=1)
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
        curve = milp.curves[g]
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
    for g, gen in enumerate(case.generators):
        for t in range(T):
            for off, span, coef, rhs in ((n_u, gen.min_up, -1.0, 0.0),
                                         (2 * n_u, gen.min_down, 1.0, 1.0)):
                for tau in range(t, min(t + span, T)):
                    row = np.zeros(ncols)
                    row[off + u_col(g, t)] = 1.0
                    row[u_col(g, tau)] = coef
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
    viol = p @ milp.row_coef.T - milp.row_rhs > milp.row_tol
    for s, r in zip(*np.nonzero(viol)):
        pool_a.append(p_row(milp.row_coef[r], s))
        pool_b.append(milp.row_rhs[s, r])
    ref["pool_a"] = np.array(pool_a).reshape(-1, ncols)
    ref["pool_b"] = np.array(pool_b)
    ref["dispatch"] = p.reshape(S, T, G).transpose(2, 0, 1)
    return ref, n_cap


def test_milp_matches_row_rules(grid24, sixbus):
    """Every array the MILP hands the simplex, and the rows it pools for the
    root LP's x, equal the per-row construction byte for byte, row order and
    the -0.0 right-hand sides of the t = 0 shut-down rows included."""
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
        for name in ("c", "lo", "hi", "a_eq", "b_eq", "a_le", "b_le"):
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
