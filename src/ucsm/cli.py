"""Command-line interface: gen-data, train, solve, bench, validate.

Exit codes: 0 success, 1 property failure, 2 input error, 3 data error,
4 model/case mismatch. An optional key-value config file (path from
--config or the UCSM_CONFIG environment variable) supplies the chosen
subcommand's flag defaults; explicit flags win, and a value its flag
cannot parse or does not allow is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import scenarios as sc
from . import svm as sv
from .dcopf import solve_dcopf
from .errors import (BalancingFailed, DimensionMismatch, FeatureMismatch,
                     ParseError, SingleClassData, UcsmError, ValidationError)
from .grid import SystemCase, build_matrices, load_bundled_case, parse_case
from .simplex import LpProblem, LpStatus, brute_force_lp, solve_lp
from .tsuc import (DEFAULT_GAP_TOL, TsucInstance, TsucMode, TsucStatus,
                   brute_force_tsuc, constraint_counts, solve_tsuc)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_DATA = 3
EXIT_MISMATCH = 4

BUNDLED = ("ring3", "sixbus", "grid24")


def _read_text(path: str, what: str) -> str:
    """An input file's text; a missing or undecodable file is an input
    error whose message names it."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} file not found: {path}")
    try:
        return p.read_text()
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise ParseError(line, f"{what} file {path} is not UTF-8 text "
                               f"({exc.reason})") from exc


def _load_case(spec: str) -> SystemCase:
    if spec in BUNDLED:
        return load_bundled_case(spec)
    return parse_case(_read_text(spec, "case"), name=Path(spec).stem)


def _read_config(path: str | None) -> dict:
    cfg_path = path or os.environ.get("UCSM_CONFIG")
    if not cfg_path:
        return {}
    out = {}
    for line in _read_text(cfg_path, "config").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _number(low: float, conv=int, strict: bool = False):
    """argparse type: a ``conv`` number no smaller than ``low``, or above
    it when ``strict``."""
    def number(text: str):
        val = conv(text)
        if not (val > low if strict else val >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low:g}, got {text}")
        return val
    return number


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen_data(args) -> int:
    case = _load_case(args.case)
    ds = sc.generate_dataset(case, args.samples, args.seed)
    text = sc.dataset_to_csv(ds)
    Path(args.out).write_text(text)
    pos, neg = ds.class_counts()
    print(f"wrote {args.out}: {len(ds)} samples "
          f"({pos} feasible, {neg} infeasible), "
          f"{len(ds.train_indices)} train / {len(ds.test_indices)} test")
    return EXIT_OK


def cmd_train(args) -> int:
    ds = sc.dataset_from_csv(_read_text(args.data, "data"))
    xtr, ytr = ds.train
    xte, yte = ds.test
    std = sv.fit_standardizer(xtr)
    cfg = sv.SvmConfig(c_negative=args.cneg_ratio, tolerance=args.tolerance,
                       max_passes=args.max_passes, rng_seed=args.seed)
    hs, report = sv.train_svm(std.transform(xtr), ytr, cfg,
                              tuple(ds.feature_names))
    hp = sv.unscale_hyperplane(hs, std)
    Path(args.out).write_text(sv.model_to_text(
        hp, std, train_seed=args.seed, margin=report.margin))
    cm = sv.evaluate(hp, xte, yte)
    print(f"wrote {args.out}")
    print(f"test confusion: tn={cm.true_neg} fp={cm.false_pos} "
          f"fn={cm.false_neg} tp={cm.true_pos}")
    print(f"test accuracy: {100.0 * cm.accuracy:.2f}%  "
          f"false-positive rate: {100.0 * cm.false_positive_rate:.2f}%")
    print(f"margin: {report.margin:.6f}  converged: {report.converged}  "
          f"passes: {report.passes}")
    print("rule:", hp.report_text())
    return EXIT_OK


def _solution_csv(sol, scens, flow_rows: int, surrogate_rows: int) -> str:
    lines = ["# objective=%.10g" % sol.objective,
             "# gap=%.3g" % sol.stats.gap,
             "# nodes=%d" % sol.stats.nodes,
             "# lp_iterations=%d" % sol.stats.lp_iterations,
             "# wall_time_ms=%.3g" % (1000.0 * sol.stats.wall_time),
             "# flow_rows=%d surrogate_rows=%d" % (flow_rows, surrogate_rows),
             "section,g,s,t,value"]
    G, T = sol.schedule.u.shape
    for g in range(G):
        for t in range(T):
            lines.append(f"u,{g},,{t},{sol.schedule.u[g, t]}")
            lines.append(f"y,{g},,{t},{sol.schedule.y[g, t]}")
            lines.append(f"z,{g},,{t},{sol.schedule.z[g, t]}")
    for g in range(G):
        for s in range(len(scens)):
            for t in range(T):
                lines.append("p,%d,%d,%d,%.10g" % (g, s, t,
                                                   sol.dispatch[g, s, t]))
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    case = _load_case(args.case)
    mode = TsucMode.SURROGATE if args.mode == "surrogate" else TsucMode.FULL_NETWORK
    hp = None
    if mode is TsucMode.SURROGATE:
        if not args.model:
            print("error: --mode surrogate requires --model", file=sys.stderr)
            return EXIT_INPUT
        hp, _, _, _ = sv.model_from_text(_read_text(args.model, "model"))
    scens = sc.build_scenarios(case, args.scenarios, args.horizon, args.seed)
    inst = TsucInstance(case, scens, args.horizon, mode, hyperplane=hp,
                        pwl_segments=args.segments)
    counts = constraint_counts(case.n_lines, args.scenarios, args.horizon)
    full = mode is TsucMode.FULL_NETWORK
    rows = (counts["full_rows"] if full else 0,
            0 if full else counts["surrogate_rows"])
    sol = solve_tsuc(inst, gap_tol=args.gap_tol)
    print("constraint rows: %d flow, %d surrogate" % rows)
    print(f"status: {sol.status.value}")
    if sol.status is TsucStatus.INFEASIBLE:
        return EXIT_DATA
    print("objective: %.6g  gap: %.3g  nodes: %d  time: %.3g ms"
          % (sol.objective, sol.stats.gap, sol.stats.nodes,
             1000.0 * sol.stats.wall_time))
    if args.out:
        Path(args.out).write_text(_solution_csv(sol, scens, *rows))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    case = _load_case(args.case)
    report = bench_mod.run_benchmark(
        case, args.trials, args.seed,
        samples=args.samples,
        n_scenarios=args.scenarios,
        horizon=args.horizon,
        pwl_segments=args.segments,
        gap_tol=args.gap_tol,
        time_repeats=args.repeats,
    )
    print(report.summary_text(), end="")
    if args.out:
        Path(args.out).write_text(report.to_csv())
        print(f"wrote {args.out}")
    paired = report.cost_errors_pct().size
    return EXIT_DATA if report.errors and not paired else EXIT_OK


# ---------------------------------------------------------------------------
# validate suites

def _suite_lp(rng) -> list[str]:
    fails = []
    for k in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        prob = LpProblem(
            c=rng.normal(size=n),
            a_eq=np.zeros((0, n)), b_eq=np.zeros(0),
            a_le=rng.normal(size=(m, n)), b_le=rng.uniform(0.5, 3.0, size=m),
            lo=np.zeros(n), hi=rng.uniform(1.0, 5.0, size=n),
        )
        got = solve_lp(prob)
        ref = brute_force_lp(prob)
        if got.status is not ref.status:
            fails.append(f"lp fuzz {k}: status {got.status} vs {ref.status}")
        elif got.status is LpStatus.OPTIMAL:
            if abs(got.objective - ref.objective) > 1e-8 * (1 + abs(ref.objective)):
                fails.append(f"lp fuzz {k}: obj {got.objective} vs {ref.objective}")
            gap = abs(got.objective - got.dual_objective)
            if gap > 1e-6 * (1 + abs(got.objective)):
                fails.append(f"lp fuzz {k}: duality gap {gap}")
    return fails


def _suite_grid(case, rng) -> list[str]:
    mats = build_matrices(case)
    fails = []
    for k in range(200):
        inj = rng.normal(size=case.n_buses) * 50.0
        inj -= inj.mean()  # balanced injection
        f_ptdf = mats.ptdf @ inj
        theta = mats.angles(inj)
        f_ang = np.array([
            (theta[case.bus_index(ln.from_bus)] - theta[case.bus_index(ln.to_bus)])
            / ln.reactance_x * case.base_mva
            for ln in case.lines
        ])
        if np.max(np.abs(f_ptdf - f_ang)) > 1e-8:
            fails.append(f"grid {case.name} draw {k}: PTDF vs angle flows differ")
            break
    return fails


def _suite_dcopf(case, rng) -> list[str]:
    fails = []
    mats = build_matrices(case)
    grid = sc.z_grid()
    for k in range(20):
        mu = np.array([rng.uniform(*w.mu_interval) for w in case.wind_units])
        sig = np.array([rng.uniform(*w.sigma_interval) for w in case.wind_units])
        z = grid[rng.integers(grid.size)]
        load = case.loads * rng.uniform(sc.LOAD_FACTOR_LO, sc.LOAD_FACTOR_HI,
                                        size=case.n_buses)
        wind = sc.wind_realization(mu, sig, z)
        res = solve_dcopf(case, wind, load, mats=mats)
        if res.status is not LpStatus.OPTIMAL:
            continue
        # nodal balance: B theta = injection
        inj = -load.copy()
        for wi, w in enumerate(case.wind_units):
            inj[case.bus_index(w.bus)] += wind[wi]
        for gi, g in enumerate(case.generators):
            inj[case.bus_index(g.bus)] += res.dispatch[gi]
        theta = mats.angles(mats.injection(load, wind, res.dispatch))
        resid = mats.b_matrix @ theta * case.base_mva - inj
        if np.max(np.abs(resid)) > 1e-6:
            fails.append(f"dcopf {case.name} draw {k}: balance residual "
                         f"{np.max(np.abs(resid)):.2e}")
    return fails


def _suite_tsuc(rng) -> list[str]:
    from .grid import Bus, Generator, Line, WindUnit
    fails = []
    for k in range(5):
        loads = rng.uniform(20, 50, size=2)
        case = SystemCase(
            buses=(Bus(1, 0.0), Bus(2, float(loads[0])), Bus(3, float(loads[1]))),
            lines=(Line(1, 2, 0.1, float(rng.uniform(40, 90))),
                   Line(2, 3, 0.12, 120.0), Line(1, 3, 0.09, 120.0)),
            generators=(
                Generator(1, 10.0, 80.0, 60.0, 60.0, 2, 1, 300.0, 50.0,
                          20.0, 12.0, 0.02),
                Generator(3, 5.0, 60.0, 50.0, 50.0, 1, 2, 150.0, 40.0,
                          15.0, 20.0, 0.03),
            ),
            wind_units=(WindUnit(2, (5.0, 15.0), (1.0, 4.0)),),
            ref_bus=1, name="validate3")
        scens = sc.build_scenarios(case, 2, 3, int(rng.integers(10_000)))
        inst = TsucInstance(case, scens, 3, TsucMode.FULL_NETWORK,
                            pwl_segments=3)
        got = solve_tsuc(inst)
        ref = brute_force_tsuc(inst)
        both = (got.status is TsucStatus.OPTIMAL
                and ref.status is TsucStatus.OPTIMAL)
        if got.status != ref.status and not both:
            fails.append(f"tsuc fuzz {k}: status {got.status} vs {ref.status}")
        elif both and abs(got.objective - ref.objective) > 1e-6 * (1 + abs(ref.objective)):
            fails.append(f"tsuc fuzz {k}: obj {got.objective} vs {ref.objective}")
    return fails


def _suite_monotone(case, rng) -> list[str]:
    from dataclasses import replace
    fails = []
    scens = sc.build_scenarios(case, 2, 3, 11)
    base = solve_tsuc(TsucInstance(case, scens, 3, TsucMode.FULL_NETWORK,
                                   pwl_segments=2))
    tight_lines = tuple(replace(ln, limit=0.5 * ln.limit) for ln in case.lines)
    tight = replace(case, lines=tight_lines)
    t_sol = solve_tsuc(TsucInstance(tight, scens, 3, TsucMode.FULL_NETWORK,
                                    pwl_segments=2))
    if base.status is TsucStatus.OPTIMAL and t_sol.status is TsucStatus.OPTIMAL:
        if t_sol.objective < base.objective - 1e-9 * (1 + abs(base.objective)):
            fails.append(f"monotone {case.name}: tightening lowered objective "
                         f"{base.objective} -> {t_sol.objective}")
    return fails


# The validate suites by name, in the order they run and draw from the one
# RNG stream; each takes the RNG and the parsed arguments.
SUITES = {
    "lp": lambda rng, args: _suite_lp(rng),
    "grid": lambda rng, args: [f for name in BUNDLED for f in
                               _suite_grid(load_bundled_case(name), rng)],
    "dcopf": lambda rng, args: [f for name in ("ring3", "sixbus") for f in
                                _suite_dcopf(load_bundled_case(name), rng)],
    "tsuc": lambda rng, args: _suite_tsuc(rng),
    "monotone": lambda rng, args: _suite_monotone(
        _load_case(args.case) if args.case else load_bundled_case("sixbus"),
        rng),
}


def cmd_validate(args) -> int:
    rng = np.random.Generator(np.random.PCG64(args.seed))
    suites = {name: run(rng, args) for name, run in SUITES.items()
              if args.suite in (None, name)}
    bad = False
    for name, fails in suites.items():
        print(f"{name}: {'PASS' if not fails else 'FAIL'}")
        for f in fails:
            print(f"  {f}")
            bad = True
    return EXIT_PROPERTY if bad else EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    p = argparse.ArgumentParser(prog="ucsm",
                                description="surrogate-constraint stochastic "
                                            "unit commitment toolkit")
    p.add_argument("--config", help="key-value config file "
                                    "(or UCSM_CONFIG env var)")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a labeled DCOPF dataset")
    g.add_argument("--case", required=True)
    g.add_argument("--samples", type=_number(50), default=1000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    svm_defaults = sv.SvmConfig()
    t = sub.add_parser("train", help="train the feasibility classifier")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--cneg-ratio", default=svm_defaults.c_negative,
                   type=_number(svm_defaults.c_positive, float),
                   help="penalty ratio for misclassified infeasible points")
    t.add_argument("--tolerance", type=_number(0.0, float, strict=True),
                   default=svm_defaults.tolerance)
    t.add_argument("--max-passes", type=_number(1),
                   default=svm_defaults.max_passes)
    t.add_argument("--seed", type=int, default=svm_defaults.rng_seed)
    t.set_defaults(func=cmd_train)

    def instance_flags(cmd: argparse.ArgumentParser) -> None:
        """The TSUC instance flags that solve and bench share."""
        cmd.add_argument("--case", required=True)
        cmd.add_argument("--scenarios", type=_number(1), default=3)
        cmd.add_argument("--horizon", type=_number(1), default=6)
        cmd.add_argument("--segments", type=_number(1),
                         default=TsucInstance.pwl_segments)
        cmd.add_argument("--gap-tol", type=_number(0.0, float),
                         default=DEFAULT_GAP_TOL)
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out")

    s = sub.add_parser("solve", help="solve the stochastic unit commitment")
    instance_flags(s)
    s.add_argument("--model")
    s.add_argument("--mode", choices=["full", "surrogate"], default="full")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="paired full-vs-surrogate benchmark")
    instance_flags(b)
    b.add_argument("--trials", type=_number(1), default=5)
    b.add_argument("--samples", type=_number(50), default=600)
    b.add_argument("--repeats", type=_number(1), default=3)
    b.set_defaults(func=cmd_bench)

    v = sub.add_parser("validate", help="run the oracle property suites")
    v.add_argument("--case")
    v.add_argument("--suite", choices=list(SUITES))
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_validate)
    return p, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        # Config values become the subcommand's defaults, so explicit flags
        # win, and argparse converts each one with its flag's type.
        cfg = _read_config(args.config)
        own = {k: v for k, v in cfg.items()
               if hasattr(args, k) and k not in ("config", "command", "func")}
        if own:
            sub = commands[args.command]
            sub.set_defaults(**own)
            args = parser.parse_args(argv)
            # argparse converts a default but never checks its choices.
            for act in sub._actions:
                if (act.dest in own and act.choices
                        and getattr(args, act.dest) not in act.choices):
                    sub.error(f"config value {act.dest} = {own[act.dest]!r}: "
                              f"choose from {', '.join(act.choices)}")
        return args.func(args)
    except (OSError, ParseError, ValidationError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SingleClassData, BalancingFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FeatureMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except UcsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
