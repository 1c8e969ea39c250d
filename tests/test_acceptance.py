"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Each criterion prints its verdict directly to the real stdout (bypassing
pytest capture) so the line is visible in the `pytest -v` stream, then
asserts. Tolerances are pinned in ``TOL`` and in the criterion bodies.
"""

import time

import numpy as np
import pytest

from ucsm import cli
from ucsm.dcopf import solve_dcopf
from ucsm.grid import build_matrices, load_bundled_case
from ucsm.scenarios import build_scenarios, generate_dataset, wind_realization, z_grid
from ucsm.simplex import LpProblem, LpStatus, brute_force_lp, solve_lp
from ucsm.svm import (SvmConfig, evaluate, fit_standardizer, train_svm,
                      unscale_hyperplane)
from ucsm.tsuc import (TsucInstance, TsucMode, TsucStatus, brute_force_tsuc,
                       constraint_counts, solve_tsuc)
from tests.conftest import make_tiny_case

TOL = {
    "oracle_rel": 1e-6,        # criterion 2: TSUC objective vs brute force
    "ptdf_flow": 1e-8,         # criterion 3: PTDF vs angle flows, inf-norm
    "balance_mw": 1e-6,        # criterion 3: nodal balance residual
    "lp_oracle": 1e-8,         # criterion 4: LP objective vs vertex oracle
    "duality_rel": 1e-6,       # criterion 4: gap <= tol * (1 + |obj|)
    "svm_toy": 1e-6,           # criterion 5: (w, b, margin) vs (1, 0, 1)
    "accuracy_min": 0.97,      # criterion 6
    "fp_rate_max": 0.01,       # criterion 6
    "cost_avg_pct": 2.0,       # criterion 7
    "cost_max_pct": 4.0,       # criterion 7
    "gap_tol": 1e-6,           # criterion 7: B&B gap per solve
    "gap_tol_big": 0.02,       # criterion 8: equal gap for both timed modes
}

FIXTURES = ("ring3", "sixbus", "grid24")


def _verdict(num: int, desc: str, ok: bool, extra: str = "") -> None:
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {desc}"
    if extra:
        line += f" ({extra})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def trained(request):
    """2,000-sample dataset + ratio-10 classifier per trainable fixture."""
    out = {}
    for name in ("sixbus", "grid24"):
        case = load_bundled_case(name)
        ds = generate_dataset(case, 2000, rng_seed=0)
        xtr, ytr = ds.train
        std = fit_standardizer(xtr)
        hs, rep = train_svm(
            std.transform(xtr), ytr,
            SvmConfig(c_positive=1.0, c_negative=10.0,
                      tolerance=1e-6, max_passes=5000),
            tuple(ds.feature_names))
        out[name] = (case, ds, unscale_hyperplane(hs, std), rep)
    return out


def test_criterion_1_constraint_count_reduction():
    small = constraint_counts(80, 20, 24)
    large = constraint_counts(186, 50, 24)
    ok = (small["full_rows"] == 76_800 and small["surrogate_rows"] == 480
          and large["full_rows"] == 446_400 and large["surrogate_rows"] == 1_200
          and round(small["reduction_pct"], 2) == 99.38
          and round(large["reduction_pct"], 2) == 99.73)
    _verdict(1, "constraint-count arithmetic exact (76,800/480 and "
                "446,400/1,200)", ok)


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    matches = 0
    worst = 0.0
    for k in range(20):
        case = make_tiny_case(line_limit=float(rng.uniform(40, 90)))
        scens = build_scenarios(case, int(rng.integers(1, 3)), 3,
                                int(rng.integers(100_000)))
        inst = TsucInstance(case, scens, 3, TsucMode.FULL_NETWORK,
                            pwl_segments=3)  # G*T = 6 <= 12
        got = solve_tsuc(inst)
        ref = brute_force_tsuc(inst)
        if got.status is not ref.status:
            _verdict(2, "B&B vs brute-force oracle", False,
                     f"instance {k}: status {got.status} vs {ref.status}")
        if got.status is TsucStatus.OPTIMAL:
            rel = abs(got.objective - ref.objective) / (1 + abs(ref.objective))
            worst = max(worst, rel)
            if rel > TOL["oracle_rel"]:
                _verdict(2, "B&B vs brute-force oracle", False,
                         f"instance {k}: rel err {rel:.2e}")
        matches += 1
    wall = time.monotonic() - t0
    ok = matches >= 20 and wall < 60.0
    _verdict(2, "20 fuzzed instances match the brute-force oracle at 1e-6",
             ok, f"worst rel err {worst:.1e}, {wall:.1f}s")


def test_criterion_3_dc_consistency():
    rng = np.random.default_rng(7)
    worst_flow = 0.0
    worst_bal = 0.0
    for name in FIXTURES:
        case = load_bundled_case(name)
        mats = build_matrices(case)
        # 10^3 random balanced injections: PTDF flows == angle-solve flows.
        inj = rng.normal(size=(1000, case.n_buses)) * 50.0
        inj -= inj.mean(axis=1, keepdims=True)
        x_over_base = np.array([ln.reactance_x for ln in case.lines])
        fb = np.array([case.bus_index(ln.from_bus) for ln in case.lines])
        tb = np.array([case.bus_index(ln.to_bus) for ln in case.lines])
        for k in range(1000):
            f_ptdf = mats.ptdf @ inj[k]
            theta = mats.angles(inj[k])
            f_ang = (theta[fb] - theta[tb]) / x_over_base * case.base_mva
            worst_flow = max(worst_flow, float(np.max(np.abs(f_ptdf - f_ang))))
        # Nodal balance in returned DCOPF solutions.
        grid = z_grid()
        for _ in range(20):
            mu = np.array([rng.uniform(*w.mu_interval) for w in case.wind_units])
            sig = np.array([rng.uniform(*w.sigma_interval) for w in case.wind_units])
            wind = wind_realization(mu, sig, float(grid[rng.integers(grid.size)]))
            load = case.loads * rng.uniform(0.8, 1.2, size=case.n_buses)
            res = solve_dcopf(case, wind, load, mats=mats)
            if res.status is not LpStatus.OPTIMAL:
                continue
            bal = -load
            for wi, w in enumerate(case.wind_units):
                bal[case.bus_index(w.bus)] += wind[wi]
            for gi, g in enumerate(case.generators):
                bal[case.bus_index(g.bus)] += res.dispatch[gi]
            theta = mats.angles(mats.injection(load, wind, res.dispatch))
            resid = mats.b_matrix @ theta * case.base_mva - bal
            worst_bal = max(worst_bal, float(np.max(np.abs(resid))))
    # Nodal balance in a returned TSUC solution.
    case = make_tiny_case()
    mats = build_matrices(case)
    scens = build_scenarios(case, 2, 3, 0)
    sol = solve_tsuc(TsucInstance(case, scens, 3, TsucMode.FULL_NETWORK,
                                  pwl_segments=3))
    assert sol.status is TsucStatus.OPTIMAL
    for s, scen in enumerate(scens):
        loads = scen.loads(case)
        for t in range(3):
            bal = -loads[:, t].copy()
            for wi, w in enumerate(case.wind_units):
                bal[case.bus_index(w.bus)] += scen.wind_mw[wi, t]
            for gi, g in enumerate(case.generators):
                bal[case.bus_index(g.bus)] += sol.dispatch[gi, s, t]
            resid = mats.b_matrix @ sol.angles[:, s, t] * case.base_mva - bal
            worst_bal = max(worst_bal, float(np.max(np.abs(resid))))
    ok = worst_flow <= TOL["ptdf_flow"] and worst_bal <= TOL["balance_mw"]
    _verdict(3, "PTDF==angle flows on 10^3 injections per fixture at 1e-8; "
                "nodal balance residual <= 1e-6 MW",
             ok, f"flow {worst_flow:.1e}, balance {worst_bal:.1e} MW")


def test_criterion_4_lp_correctness():
    rng = np.random.default_rng(11)
    worst_obj = 0.0
    worst_gap = 0.0
    solved = 0
    for k in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        prob = LpProblem(
            c=rng.normal(size=n),
            a_eq=np.zeros((0, n)), b_eq=np.zeros(0),
            a_le=rng.normal(size=(m, n)),
            b_le=rng.uniform(0.5, 3.0, size=m),
            lo=np.zeros(n), hi=rng.uniform(1.0, 5.0, size=n),
        )
        got = solve_lp(prob)
        ref = brute_force_lp(prob)
        if got.status is not ref.status:
            _verdict(4, "LP duality + vertex oracle", False,
                     f"LP {k}: status {got.status} vs {ref.status}")
        if got.status is LpStatus.OPTIMAL:
            solved += 1
            worst_obj = max(worst_obj, abs(got.objective - ref.objective)
                            / (1 + abs(ref.objective)))
            worst_gap = max(worst_gap, abs(got.objective - got.dual_objective)
                            / (1 + abs(got.objective)))
    ok = (solved >= 50 and worst_obj <= TOL["lp_oracle"]
          and worst_gap <= TOL["duality_rel"])
    _verdict(4, "100 random LPs: vertex-oracle agreement at 1e-8, duality "
                "gap <= 1e-6*(1+|obj|)",
             ok, f"{solved} optimal, obj err {worst_obj:.1e}, "
                 f"gap {worst_gap:.1e}")


def test_criterion_5_svm_correctness():
    # Two-point toy: (+1 at x=+1, -1 at x=-1) -> w=1, b=0, margin 1.
    x = np.array([[1.0], [-1.0]])
    y = np.array([1.0, -1.0])
    h, rep = train_svm(x, y, SvmConfig(c_positive=10.0, c_negative=10.0),
                       ("x0",))
    toy_ok = (abs(h.weights_scaled[0] - 1.0) <= TOL["svm_toy"]
              and abs(h.bias_scaled) <= TOL["svm_toy"]
              and abs(rep.margin - 1.0) <= TOL["svm_toy"])
    # Monotone dual trace on a realistic training run.
    rng = np.random.default_rng(3)
    xr = rng.normal(size=(200, 4))
    yr = np.where(xr[:, 0] - 0.5 * xr[:, 2]
                  + 0.1 * rng.normal(size=200) > 0, 1.0, -1.0)
    std = fit_standardizer(xr)
    hs, rep2 = train_svm(std.transform(xr), yr,
                         SvmConfig(tolerance=1e-8, max_passes=500),
                         ("x0", "x1", "x2", "x3"))
    trace = np.asarray(rep2.dual_trace)
    mono_ok = bool(np.all(np.diff(trace) >= -1e-9))
    # Scaled/physical sign equivalence on every stored sample.
    hp = unscale_hyperplane(hs, std)
    s_scaled = np.sign(std.transform(xr) @ hs.weights_scaled + hs.bias_scaled)
    s_phys = np.sign(xr @ hp.weights_physical + hp.bias_physical)
    sign_ok = bool(np.array_equal(s_scaled, s_phys))
    ok = toy_ok and mono_ok and sign_ok
    _verdict(5, "toy SVM recovers (w,b,margin)=(1,0,1) at 1e-6; dual trace "
                "monotone; scaled/physical signs agree",
             ok, f"toy={toy_ok} monotone={mono_ok} signs={sign_ok}")


def test_criterion_6_desk_scale_classification(trained):
    t0 = time.monotonic()
    parts = []
    ok = True
    for name in ("sixbus", "grid24"):
        case, ds, hp, rep = trained[name]
        assert len(ds) >= 1000
        xte, yte = ds.test
        cm = evaluate(hp, xte, yte)
        parts.append(f"{name}: acc {100 * cm.accuracy:.2f}% "
                     f"fp {100 * cm.false_positive_rate:.2f}%")
        ok = ok and (cm.accuracy >= TOL["accuracy_min"]
                     and cm.false_positive_rate <= TOL["fp_rate_max"])
    wall = time.monotonic() - t0
    ok = ok and wall < 300.0
    _verdict(6, "held-out accuracy >= 97% and FP rate <= 1% at penalty "
                "ratio 10 on both fixtures", ok, "; ".join(parts))


def test_criterion_7_desk_scale_cost_fidelity(trained):
    parts = []
    ok = True
    for name, (s_cnt, horizon, segs) in (
        ("sixbus", (3, 4, 3)),
        ("grid24", (2, 6, 3)),
    ):
        case, _, hp, _ = trained[name]
        errs = []
        for seed in range(10):
            scens = build_scenarios(case, s_cnt, horizon, rng_seed=seed)
            full = solve_tsuc(
                TsucInstance(case, scens, horizon, TsucMode.FULL_NETWORK,
                             pwl_segments=segs), gap_tol=TOL["gap_tol"])
            sur = solve_tsuc(
                TsucInstance(case, scens, horizon, TsucMode.SURROGATE,
                             hyperplane=hp, pwl_segments=segs),
                gap_tol=TOL["gap_tol"])
            if (full.status is not TsucStatus.OPTIMAL
                    or sur.status is not TsucStatus.OPTIMAL):
                ok = False
                parts.append(f"{name} seed {seed}: {full.status.value}"
                             f"/{sur.status.value}")
                continue
            errs.append(100.0 * abs(sur.objective - full.objective)
                        / abs(full.objective))
        if len(errs) == 10:
            avg, mx = float(np.mean(errs)), float(np.max(errs))
            parts.append(f"{name}: avg {avg:.2f}% max {mx:.2f}%")
            ok = ok and avg <= TOL["cost_avg_pct"] and mx <= TOL["cost_max_pct"]
        else:
            ok = False
    _verdict(7, "10 paired solves per fixture: avg cost error <= 2%, "
                "max <= 4%", ok, "; ".join(parts))


def test_criterion_8_directional_speedup(trained):
    case, _, hp, _ = trained["grid24"]
    scens = build_scenarios(case, 10, 24, rng_seed=0)
    # Both modes solve to the same 2% optimality gap; at 1e-6 the pure-
    # Python branch and bound needs hours on 240 binaries in either mode.
    t0 = time.monotonic()
    sur = solve_tsuc(TsucInstance(case, scens, 24, TsucMode.SURROGATE,
                                  hyperplane=hp, pwl_segments=4),
                     gap_tol=TOL["gap_tol_big"])
    t_sur = time.monotonic() - t0
    t0 = time.monotonic()
    full = solve_tsuc(TsucInstance(case, scens, 24, TsucMode.FULL_NETWORK,
                                   pwl_segments=4),
                      gap_tol=TOL["gap_tol_big"])
    t_full = time.monotonic() - t0
    ok = (sur.status is TsucStatus.OPTIMAL
          and full.status is TsucStatus.OPTIMAL
          and t_sur < t_full)
    saving = 100.0 * (t_full - t_sur) / t_full if t_full > 0 else float("nan")
    _verdict(8, "24-bus S=10 T=24: surrogate wall time < full wall time",
             ok, f"surrogate {t_sur:.1f}s vs full {t_full:.1f}s, "
                 f"saving {saving:.1f}%")


def test_criterion_9_determinism(tmp_path):
    pairs = []
    for run in ("a", "b"):
        data = tmp_path / f"data_{run}.csv"
        model = tmp_path / f"model_{run}.model"
        rc = cli.main(["gen-data", "--case", "sixbus", "--samples", "300",
                       "--seed", "17", "--out", str(data)])
        assert rc == cli.EXIT_OK
        rc = cli.main(["train", "--data", str(data), "--seed", "5",
                       "--out", str(model)])
        assert rc == cli.EXIT_OK
        pairs.append((data.read_bytes(), model.read_bytes()))
    ok = pairs[0] == pairs[1]
    _verdict(9, "gen-data and train artifacts byte-identical across runs "
                "with fixed seeds", ok)
