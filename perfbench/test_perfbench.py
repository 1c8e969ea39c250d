"""Self-tests of the benchmark: python3 -m pytest perfbench

They run the tiny variant of each workload, so they take about a minute;
the pinned-model test regenerates the 1,000-sample grid24 model.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import pacer  # noqa: E402
import pinned  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, group):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == 0:
        for name in expected:
            assert result["metrics"][name]["value"] > 0
            assert f"\n{name} " in proc.stdout  # human-readable line too
    else:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["trace.absent"] == 0
        assert values["trace.coverage_pct"] >= 95.0


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("uc-exact", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def uc_pass(size: str = "tiny"):
    wl = workloads.make("uc-exact", size)
    state = wl.setup(0)
    return wl, state, wl.run_pass(state)


def test_corrupted_dispatch_counts_as_failed():
    wl, state, res = uc_pass()
    assert wl.check(state, res, {})[0] == []
    sol = res.ops[0].result
    sol.dispatch = sol.dispatch.copy()
    g = int(np.argmax(sol.schedule.u[:, 0]))
    sol.dispatch[g, 0, 0] += 0.5  # breaks balance and the re-priced cost
    problems = wl.check(state, res, {})[0]
    assert len(problems) == 1 and "balance" in problems[0]


def test_wrong_reference_counts_as_failed():
    wl, state, res = uc_pass()
    sd, _, inst = state["instances"][0]
    obj = res.ops[0].result.objective
    ref = {"uc-exact": {str(sd): {inst.mode.value: obj * 1.001}}}
    wl.size = "default"  # references apply to the default size only
    problems = wl.check(state, res, ref)[0]
    # the set is solved in both scenario orders; both solves miss it
    assert len(problems) == 2
    assert all(p.startswith(f"{inst.mode.value}:{sd}:") for p in problems)


def traced_counts(name: str) -> dict:
    wl = workloads.make(name, "tiny")
    state = wl.setup(3)
    with tracer.Tracer() as tr:
        res = wl.run_pass(state)
    m = tracer.layer_metrics(tr.spans, res.wall_s)
    keys = [k for k in m if k.endswith((".calls", ".iters", ".nodes",
                                        ".lp_solves", ".passes"))]
    return {k: m[k] for k in keys}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_at_a_fixed_seed(workload):
    first = traced_counts(workload)
    assert first == traced_counts(workload)
    if workload.startswith("uc-"):
        assert first["tsuc.nodes"] > 0 and first["simplex.node.iters"] > 0
    else:
        assert first["svm.passes"] > 0 and first["simplex.dcopf.iters"] > 0


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "WRAPS", tracer.WRAPS + (
        ("ucsm.tsuc", "renamed_away", "tsuc.renamed_away", None),
        ("ucsm.no_such_module", "f", "x.f", None)))
    wl, state, _ = uc_pass()
    with tracer.Tracer() as tr:
        wl.run_pass(state)
    assert tr.absent == ["ucsm.tsuc.renamed_away", "ucsm.no_such_module.f"]
    assert any(sp[0] == "tsuc.solve_tsuc" for sp in tr.spans)
    assert workloads.tsuc.solve_tsuc.__name__ == "solve_tsuc"  # restored


def test_pinned_model_regenerates_byte_identical():
    assert pinned.model_via_api() == workloads.MODEL_FILE.read_text()


def tick() -> None:
    """Stands in for a program function the pacer hooks."""


def test_pacer_leaves_its_samples_out_and_restores_hooks(monkeypatch):
    monkeypatch.setattr(pacer, "HOOKS", ((__name__, "tick"),))
    module, original = sys.modules[__name__], tick

    def work():  # one second of work between samples
        t0 = time.perf_counter() - pacer.sampled_seconds()
        while time.perf_counter() - pacer.sampled_seconds() - t0 < 1.0:
            module.tick()

    with pacer.Pacer() as clock:
        assert module.tick is not original
        _, exc, wall, cpu, scale = clock.timed(work)
    assert module.tick is original
    assert exc is None and len(clock.samples) >= 4  # start, 2 inside, end
    assert 1.0 <= wall < 1.05 and cpu <= wall
    speed = statistics.fmean(clock.samples)
    assert scale == pytest.approx(clock.kernel.ref_s / speed)
