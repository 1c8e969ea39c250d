"""Regenerate the benchmark's pinned model and its recorded references.

    python3 perfbench/pinned.py           # rewrite data/grid24.model and
                                          # data/reference.json

The model is what ``ucsm gen-data --case grid24 --seed 0`` and
``ucsm train --seed 0`` write at their defaults (1,000 samples; c_negative
10, tolerance 1e-4, max_passes 1000). The uc-* workloads read it, so both
sides of a comparison solve identical inputs and set-up time carries no
data generation or training. ``model_via_api`` rebuilds it through the
public API; the self-tests require the two to be byte-identical.

The references are the uc-exact objectives of every pinned scenario set in
both modes, and the SHA-256 of the dataset CSV of every pinned learn
dataset and of the model text for each of its training seeds. Rewrite
them only when a change is meant to alter those answers, and say so in
the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from ucsm import cli, grid, scenarios, svm  # noqa: E402

import workloads  # noqa: E402

MODEL_CASE = "grid24"
MODEL_SEED = 0


def model_via_cli() -> str:
    """The model text the two CLI commands write at their defaults."""
    with tempfile.TemporaryDirectory() as tmp:
        data, model = Path(tmp) / "data.csv", Path(tmp) / "grid24.model"
        for argv in (["gen-data", "--case", MODEL_CASE, "--seed",
                      str(MODEL_SEED), "--out", str(data)],
                     ["train", "--data", str(data), "--seed", str(MODEL_SEED),
                      "--out", str(model)]):
            if cli.main(argv) != cli.EXIT_OK:
                raise RuntimeError(f"ucsm {argv[0]} failed")
        return model.read_text()


def model_via_api() -> str:
    """The same model rebuilt through the public API, CSV round trip
    included, as ``ucsm train`` reads it."""
    case = grid.load_bundled_case(MODEL_CASE)
    ds = scenarios.generate_dataset(case, 1000, MODEL_SEED)
    ds = scenarios.dataset_from_csv(scenarios.dataset_to_csv(ds))
    xtr, ytr = ds.train
    std = svm.fit_standardizer(xtr)
    cfg = svm.SvmConfig(c_positive=1.0, c_negative=workloads.C_NEGATIVE,
                        tolerance=workloads.SVM_TOLERANCE,
                        max_passes=workloads.SVM_MAX_PASSES,
                        rng_seed=MODEL_SEED)
    hs, report = svm.train_svm(std.transform(xtr), ytr, cfg,
                               tuple(ds.feature_names))
    hp = svm.unscale_hyperplane(hs, std)
    return svm.model_to_text(hp, std, train_seed=MODEL_SEED,
                             margin=report.margin)


def references() -> dict:
    """Reference answers for every pinned uc-exact and learn input."""
    out: dict = {"uc-exact": {}, "learn": {}}
    uc = workloads.make("uc-exact")
    p = uc.p
    case = grid.load_bundled_case(p["case"])
    mats = grid.build_matrices(case)
    hyperplane = svm.model_from_text(workloads.MODEL_FILE.read_text())[0]
    for sd in p["scenario_seeds"]:
        scens = scenarios.build_scenarios(case, p["S"], p["T"], sd)
        row = {}
        for mode, model in ((workloads.tsuc.TsucMode.FULL_NETWORK, None),
                            (workloads.tsuc.TsucMode.SURROGATE, hyperplane)):
            inst = workloads.tsuc.TsucInstance(case, scens, p["T"], mode,
                                               hyperplane=model,
                                               pwl_segments=p["K"])
            sol = workloads.tsuc.solve_tsuc(inst, gap_tol=p["gap"], mats=mats)
            row[mode.value] = sol.objective
        out["uc-exact"][str(sd)] = row
    learn = workloads.make("learn")
    for name in learn.p["cases"]:
        case = grid.load_bundled_case(name)
        mats = grid.build_matrices(case)
        out["learn"][name] = {}
        for d in learn.p["dataset_seeds"]:
            models = {}
            for t in range(learn.p["training_seeds"]):
                res = learn.learn_one(case, mats, d, t)
                models[str(t)] = workloads.sha256(res["model"])
            out["learn"][name][str(d)] = {
                "csv_sha256": workloads.sha256(res["csv"]),
                "model_sha256": models,
            }
    return out


def main() -> int:
    text = model_via_cli()
    workloads.DATA.mkdir(exist_ok=True)
    workloads.MODEL_FILE.write_text(text)
    workloads.REFERENCE_FILE.write_text(
        json.dumps(references(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
