"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload has a ``setup`` that loads everything a pass needs (case,
grid matrices, pinned model, scenarios), a ``run_pass`` that makes the
timed calls into the ``ucsm`` API and keeps their results, and a ``check``
that verifies those results outside the timed section. Every call goes
through the module attribute (``tsuc.solve_tsuc``, not an imported name),
so a tracer patching those attributes sees it.

The problems themselves are pinned, with recorded references: scenario
sets for uc-*, datasets for learn. Work per problem swings far more between
problems, and between scenario orders of one set, than a run can average
out (see README.md), so the seed leaves the problems of a pass alone. It
picks the sequence of the solves within a uc-* pass, and the SVM training
seed of each learn pipeline, which orders its coordinate passes: grid24
stops at the pass limit whatever the order, sixbus converges after a
seed-dependent few hundred passes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ucsm import grid, scenarios, svm, tsuc

import checks
import pacer

DATA = Path(__file__).resolve().parent / "data"
MODEL_FILE = DATA / "grid24.model"
REFERENCE_FILE = DATA / "reference.json"

# CLI defaults of ``ucsm train``.
C_NEGATIVE = 10.0
SVM_TOLERANCE = 1e-4
SVM_MAX_PASSES = 1000

# Workload shapes. "tiny" runs the same code paths in about a second each
# and is what the self-tests use.
SIZES = {
    "uc-exact": {
        "default": dict(case="grid24", S=2, T=6, K=3, gap=1e-6,
                        scenario_seeds=(1, 2), all_orders=True,
                        kernel="medium"),
        "tiny": dict(case="grid24", S=2, T=3, K=2, gap=1e-6,
                     scenario_seeds=(0,), all_orders=True, kernel="medium"),
    },
    "uc-gap": {
        "default": dict(case="grid24", S=5, T=12, K=4, gap=0.02,
                        scenario_seeds=(0,), all_orders=False,
                        kernel="large"),
        "tiny": dict(case="grid24", S=2, T=3, K=2, gap=0.02,
                     scenario_seeds=(0,), all_orders=False, kernel="large"),
    },
    "learn": {
        "default": dict(cases=("sixbus", "grid24"), samples=1000,
                        dataset_seeds=(0,), training_seeds=4,
                        max_passes=SVM_MAX_PASSES, kernel="small"),
        "tiny": dict(cases=("sixbus", "grid24"), samples=100,
                     dataset_seeds=(0,), training_seeds=2, max_passes=50,
                     kernel="small"),
    },
}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def seed_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass
class Op:
    """One timed call into the program and what it returned. Times leave
    out the speed samples taken during the call (see ``pacer``)."""

    label: str
    seconds: float
    cpu_s: float
    scaled_s: float
    result: object = None
    error: str | None = None


@dataclass
class PassResult:
    ops: list[Op] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)

    @property
    def scaled_s(self) -> float:
        return sum(op.scaled_s for op in self.ops)


def _timed(clock, ops: list[Op], label: str, fn, *args, **kwargs) -> None:
    out, exc, wall, cpu, scale = clock.timed(fn, *args, **kwargs)
    error = None if exc is None else f"{type(exc).__name__}: {exc}"
    ops.append(Op(label, wall, cpu, cpu * scale, out, error))


class UcWorkload:
    """Paired full/surrogate ``solve_tsuc`` calls on grid24 scenario sets."""

    def __init__(self, name: str, size: str = "default"):
        self.name = name
        self.size = size
        self.p = SIZES[name][size]

    def scenario_sets(self, case):
        """(scenario seed, scenario order, scenarios) per pinned set: in
        every order of its scenarios with ``all_orders``, else in the order
        ``build_scenarios`` gives."""
        p, out = self.p, []
        natural = tuple(range(p["S"]))
        orders = (list(itertools.permutations(natural)) if p["all_orders"]
                  else [natural])
        for sd in p["scenario_seeds"]:
            base = scenarios.build_scenarios(case, p["S"], p["T"], sd)
            for order in orders:
                out.append((sd, order, [base[i] for i in order]))
        return out

    def setup(self, seed: int) -> dict:
        """Case, matrices and one instance per (set, order, mode), in a
        seed-chosen sequence."""
        p = self.p
        case = grid.load_bundled_case(p["case"])
        mats = grid.build_matrices(case)
        hyperplane = svm.model_from_text(MODEL_FILE.read_text())[0]
        instances = []
        for sd, order, scens in self.scenario_sets(case):
            for mode, model in ((tsuc.TsucMode.FULL_NETWORK, None),
                                (tsuc.TsucMode.SURROGATE, hyperplane)):
                inst = tsuc.TsucInstance(case, scens, p["T"], mode,
                                         hyperplane=model,
                                         pwl_segments=p["K"])
                instances.append((sd, order, inst))
        sequence = seed_rng(seed).permutation(len(instances))
        return {"mats": mats, "instances": [instances[i] for i in sequence]}

    def run_pass(self, state: dict, clock=None) -> PassResult:
        clock, ops = clock or pacer.Stopwatch(), []
        for sd, order, inst in state["instances"]:
            label = f"{inst.mode.value}:{sd}:{''.join(map(str, order))}"
            _timed(clock, ops, label, tsuc.solve_tsuc, inst,
                   gap_tol=self.p["gap"], mats=state["mats"])
        return PassResult(ops)

    def stage_seconds(self, res: PassResult) -> dict[str, float]:
        out = {"full_solve_s": 0.0, "surrogate_solve_s": 0.0}
        for op in res.ops:
            out[op.label.split(":")[0] + "_solve_s"] += op.seconds
        return out

    def check(self, state: dict, res: PassResult, reference: dict
              ) -> tuple[list[str], dict]:
        """(one problem line per failed op, fidelity figures)."""
        refs = reference.get(self.name, {}) if self.size == "default" else {}
        problems, objectives, fidelity = [], {}, {}
        for (sd, order, inst), op in zip(state["instances"], res.ops):
            mode, pair = inst.mode.value, op.label.split(":", 1)[1]
            if op.error is not None:
                problems.append(f"{op.label}: {op.error}")
                continue
            ref = refs.get(str(sd), {}).get(mode)
            bad = checks.check_tsuc(op.result, inst, state["mats"],
                                    self.p["gap"], ref)
            if bad:
                problems.append(f"{op.label}: " + "; ".join(bad))
            objectives[(pair, mode)] = op.result.objective
            fidelity[f"nodes:{op.label}"] = op.result.stats.nodes
            if mode == "surrogate" and op.result.dispatch is not None:
                hours, total, worst = checks.overloads(
                    inst, state["mats"], op.result.dispatch)
                fidelity[f"overloaded_line_hours:{pair}"] = f"{hours}/{total}"
                fidelity[f"max_overload_mw:{pair}"] = round(worst, 4)
        for pair in sorted({pair for pair, _ in objectives}):
            full = objectives.get((pair, "full"))
            sur = objectives.get((pair, "surrogate"))
            if full is not None and sur is not None:
                fidelity[f"cost_error_pct:{pair}"] = round(
                    100.0 * (sur - full) / full, 4)
                fidelity[f"base_objective:{pair}"] = round(full, 4)
        return problems, fidelity


class LearnWorkload:
    """``generate_dataset`` plus standardize/train/evaluate per case."""

    name = "learn"

    def __init__(self, size: str = "default"):
        self.size = size
        self.p = SIZES["learn"][size]

    def setup(self, seed: int) -> dict:
        p = self.p
        n_jobs = len(p["cases"]) * len(p["dataset_seeds"])
        train = iter(seed_rng(seed).choice(p["training_seeds"], size=n_jobs,
                                           replace=n_jobs > p["training_seeds"]))
        jobs = []
        for name in p["cases"]:
            case = grid.load_bundled_case(name)
            mats = grid.build_matrices(case)
            for d in p["dataset_seeds"]:
                jobs.append((name, d, int(next(train)), case, mats))
        return {"jobs": jobs}

    def run_pass(self, state: dict, clock=None) -> PassResult:
        clock, ops = clock or pacer.Stopwatch(), []
        for name, d, t, case, mats in state["jobs"]:
            _timed(clock, ops, f"{name}:{d}:{t}", self.learn_one, case, mats,
                   d, t)
        return PassResult(ops)

    def learn_one(self, case, mats, d: int, t: int) -> dict:
        """The gen-data + train pipeline of the CLI for one case, dataset
        seed ``d`` and training seed ``t``."""
        t0 = time.perf_counter() - pacer.sampled_seconds()
        ds = scenarios.generate_dataset(case, self.p["samples"], d, mats=mats)
        gen_s = time.perf_counter() - pacer.sampled_seconds() - t0
        csv = scenarios.dataset_to_csv(ds)
        xtr, ytr = ds.train
        xte, yte = ds.test
        std = svm.fit_standardizer(xtr)
        cfg = svm.SvmConfig(c_positive=1.0, c_negative=C_NEGATIVE,
                            tolerance=SVM_TOLERANCE,
                            max_passes=self.p["max_passes"], rng_seed=t)
        t0 = time.perf_counter() - pacer.sampled_seconds()
        hs, report = svm.train_svm(std.transform(xtr), ytr, cfg,
                                   tuple(ds.feature_names))
        train_s = time.perf_counter() - pacer.sampled_seconds() - t0
        hp = svm.unscale_hyperplane(hs, std)
        text = svm.model_to_text(hp, std, train_seed=t, margin=report.margin)
        cm = svm.evaluate(hp, xte, yte)
        return {"samples": len(ds), "classes": ds.class_counts(), "csv": csv,
                "model": text, "report": report, "confusion": cm,
                "gen_data_s": gen_s, "train_s": train_s}

    def stage_seconds(self, res: PassResult) -> dict[str, float]:
        out = {"gen_data_s": 0.0, "train_s": 0.0}
        for op in res.ops:
            if op.result is not None:
                for key in out:
                    out[key] += op.result[key]
        return out

    def check(self, state: dict, res: PassResult, reference: dict
              ) -> tuple[list[str], dict]:
        refs = reference.get("learn", {}) if self.size == "default" else {}
        problems, fidelity = [], {}
        for (name, d, t, case, _), op in zip(state["jobs"], res.ops):
            if op.error is not None:
                problems.append(f"{op.label}: {op.error}")
                continue
            out = op.result
            bad = []
            pos, neg = out["classes"]
            if out["samples"] < self.p["samples"] or min(pos, neg) == 0:
                bad.append(f"dataset has {pos}+{neg} samples")
            back = svm.model_from_text(out["model"])[0]
            if tuple(back.feature_names) != tuple(case.feature_names()):
                bad.append("model features do not match the case")
            ref = refs.get(name, {}).get(str(d))
            if ref is not None:
                if sha256(out["csv"]) != ref["csv_sha256"]:
                    bad.append("dataset CSV differs from the recorded one")
                if sha256(out["model"]) != ref["model_sha256"].get(str(t)):
                    bad.append("model text differs from the recorded one")
            if bad:
                problems.append(f"{op.label}: " + "; ".join(bad))
            cm, rep = out["confusion"], out["report"]
            fidelity[f"accuracy_pct:{op.label}"] = round(100 * cm.accuracy, 2)
            fidelity[f"false_positive_pct:{op.label}"] = round(
                100 * cm.false_positive_rate, 2)
            fidelity[f"svm_passes:{op.label}"] = rep.passes
            fidelity[f"svm_converged:{op.label}"] = rep.converged
        return problems, fidelity


def make(name: str, size: str = "default"):
    if name == "learn":
        return LearnWorkload(size)
    if name in SIZES:
        return UcWorkload(name, size)
    raise KeyError(name)
