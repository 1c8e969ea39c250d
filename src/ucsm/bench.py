"""Paired full-vs-surrogate benchmark harness.

Each trial runs the whole pipeline on its own seed: generate a labeled
dataset, train the classifier, then solve the same TSUC instance in full
and surrogate modes. Aggregates follow the min/avg/max shape of the
summary tables this mirrors.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field

import numpy as np

from .grid import SystemCase, build_matrices
from .scenarios import build_scenarios, generate_dataset
from .svm import (ConfusionMatrix, SvmConfig, TrainReport, evaluate,
                  fit_standardizer, train_svm, unscale_hyperplane)
from .tsuc import TsucInstance, TsucMode, constraint_counts, solve_tsuc

@dataclass
class TrialRow:
    seed: int
    mode: str
    objective: float
    wall_time: float
    nodes: int
    constraint_count: int
    status: str


@dataclass
class BenchmarkReport:
    rows: list[TrialRow] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    confusion: ConfusionMatrix | None = None  # of the first trained trial
    training: TrainReport | None = None       # of the same trial
    reduction_pct: float = float("nan")

    def _paired(self):
        full = {r.seed: r for r in self.rows if r.mode == "full"}
        sur = {r.seed: r for r in self.rows if r.mode == "surrogate"}
        for seed in sorted(full.keys() & sur.keys()):
            f, s = full[seed], sur[seed]
            if f.status == "optimal" and s.status == "optimal":
                yield f, s

    def cost_errors_pct(self) -> np.ndarray:
        """|surrogate - full| of each pair in percent of |full|; for a full
        objective of 0, 0 if the surrogate's is 0 too and inf otherwise."""
        return np.array([
            100.0 * abs(s.objective - f.objective) / abs(f.objective)
            if f.objective else (np.inf if s.objective else 0.0)
            for f, s in self._paired()
        ])

    def time_savings_pct(self) -> np.ndarray:
        return np.array([
            100.0 * (f.wall_time - s.wall_time) / f.wall_time
            for f, s in self._paired()
        ])

    @staticmethod
    def _mam(vals: np.ndarray):
        if vals.size == 0:
            return (float("nan"),) * 3
        return float(vals.min()), float(vals.mean()), float(vals.max())

    def summary_text(self) -> str:
        buf = io.StringIO()
        ce = self._mam(self.cost_errors_pct())
        ts = self._mam(self.time_savings_pct())
        buf.write(f"paired trials: {sum(1 for _ in self._paired())}\n")
        buf.write("cost error %%: min %.2f avg %.2f max %.2f\n" % ce)
        buf.write("time saving %%: min %.2f avg %.2f max %.2f\n" % ts)
        buf.write("constraint reduction %%: %.2f\n" % self.reduction_pct)
        if self.confusion is not None:
            cm, tr = self.confusion, self.training
            buf.write(
                "classifier: tn=%d fp=%d fn=%d tp=%d accuracy %.2f%% "
                "margin %.4f passes %d converged %s\n"
                % (cm.true_neg, cm.false_pos, cm.false_neg, cm.true_pos,
                   100.0 * cm.accuracy, tr.margin, tr.passes, tr.converged)
            )
        for err in self.errors:
            buf.write(f"error: {err}\n")
        return buf.getvalue()

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("seed,mode,status,objective,wall_time_ms,nodes,constraint_count\n")
        for r in self.rows:
            buf.write("%d,%s,%s,%.10g,%.3g,%d,%d\n" % (
                r.seed, r.mode, r.status, r.objective,
                1000.0 * r.wall_time, r.nodes, r.constraint_count))
        ce = self._mam(self.cost_errors_pct())
        ts = self._mam(self.time_savings_pct())
        buf.write("# cost_error_pct_min=%.2f avg=%.2f max=%.2f\n" % ce)
        buf.write("# time_saving_pct_min=%.2f avg=%.2f max=%.2f\n" % ts)
        buf.write("# reduction_pct=%.2f\n" % self.reduction_pct)
        if self.confusion is not None:
            cm, tr = self.confusion, self.training
            buf.write("# confusion tn=%d fp=%d fn=%d tp=%d accuracy=%.4f "
                      "passes=%d converged=%s\n"
                      % (cm.true_neg, cm.false_pos, cm.false_neg, cm.true_pos,
                         cm.accuracy, tr.passes, tr.converged))
        for err in self.errors:
            buf.write(f"# error: {err}\n")
        return buf.getvalue()


def _median_time(solve, repeats: int) -> tuple[object, float]:
    """Run a solve `repeats` times; return last solution and median time."""
    times = []
    sol = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        sol = solve()
        times.append(time.perf_counter() - t0)
    return sol, float(np.median(times))


def run_benchmark(
    case: SystemCase,
    trials: int,
    seed: int,
    *,
    samples: int,
    n_scenarios: int,
    horizon: int,
    pwl_segments: int,
    gap_tol: float,
    time_repeats: int,
) -> BenchmarkReport:
    """gen -> train -> solve(full) -> solve(surrogate) over `trials` seeds.

    A stage failure is recorded per trial and the run continues. The same
    scenario set and gap tolerance are used for both modes of a pair.
    """
    report = BenchmarkReport()
    mats = build_matrices(case)
    counts = constraint_counts(case.n_lines, n_scenarios, horizon)
    report.reduction_pct = counts["reduction_pct"]

    for k in range(trials):
        trial_seed = seed + k
        try:
            ds = generate_dataset(case, samples, trial_seed, mats=mats)
            xtr, ytr = ds.train
            xte, yte = ds.test
            std = fit_standardizer(xtr)
            hs, train_rep = train_svm(std.transform(xtr), ytr,
                                      SvmConfig(rng_seed=trial_seed),
                                      tuple(ds.feature_names))
            hp = unscale_hyperplane(hs, std)
            if report.confusion is None:
                report.confusion = evaluate(hp, xte, yte)
                report.training = train_rep

            scens = build_scenarios(case, n_scenarios, horizon, trial_seed)
            for mode, model in ((TsucMode.FULL_NETWORK, None),
                                (TsucMode.SURROGATE, hp)):
                inst = TsucInstance(case, scens, horizon, mode,
                                    hyperplane=model,
                                    pwl_segments=pwl_segments)
                sol, med = _median_time(
                    lambda: solve_tsuc(inst, gap_tol=gap_tol, mats=mats),
                    time_repeats,
                )
                rows = (counts["full_rows"] if mode is TsucMode.FULL_NETWORK
                        else counts["surrogate_rows"])
                report.rows.append(TrialRow(
                    seed=trial_seed,
                    mode=mode.value,
                    objective=sol.objective,
                    wall_time=med,
                    nodes=sol.stats.nodes,
                    constraint_count=rows,
                    status=sol.status.value,
                ))
        except Exception as exc:  # record and continue with the next trial
            report.errors.append(f"trial {trial_seed}: {exc}")
    return report
