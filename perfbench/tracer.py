"""Span tracing around the public functions of each ``ucsm`` layer.

The tracer patches module attributes for the duration of a traced pass, so
every call the program makes through those names records a span: name,
start, end, parent and a few attributes read from the call's arguments and
result. Spans stay in memory until the run writes them out. No program
code is changed: a later program version that renames a wrapped
function shows up in ``absent`` instead of crashing the run.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

LAYERS = ("simplex", "tsuc", "grid", "dcopf", "scenarios", "svm")
LP_CALLERS = ("node", "dispatch", "dcopf")
# Highest percentiles considered for a tail latency; the reported one is
# the highest that still has at least TAIL_MIN samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN = 10
MB = float(2 ** 20)


def _lp_attrs(via):
    def attrs(args, kwargs, sol):
        problem = args[0]
        return {
            "via": via,
            "n": int(problem.c.size),
            "m": int(problem.a_eq.shape[0] + problem.a_le.shape[0]),
            "iters": int(sol.iterations),
            "optimal": sol.status.value == "optimal",
            "warm": kwargs.get("start") is not None,
        }
    return attrs


def _tsuc_attrs(args, kwargs, sol):
    inst = args[0]
    return {
        "mode": inst.mode.value,
        "dims": (inst.case.n_gens, len(inst.scenarios), inst.horizon,
                 inst.pwl_segments),
        "n_lines": inst.case.n_lines,
        "nodes": int(sol.stats.nodes),
        "lp_solves": int(sol.stats.lp_solves),
    }


def _dcopf_attrs(args, kwargs, res):
    enforce = args[3] if len(args) > 3 else kwargs.get("enforce_limits", True)
    return {"constrained": bool(enforce)}


def _train_attrs(args, kwargs, out):
    report = out[1]
    return {"passes": int(report.passes), "converged": bool(report.converged)}


def _dataset_attrs(args, kwargs, ds):
    return {"samples": len(ds)}


# (module, attribute path, span name, attribute extractor). Calls the
# program makes internally are caught because the program looks these
# names up in the module named here at call time.
WRAPS = (
    ("ucsm.tsuc", "solve_tsuc", "tsuc.solve_tsuc", _tsuc_attrs),
    ("ucsm.tsuc", "build_milp", "tsuc.build_milp", None),
    ("ucsm.tsuc", "remap_start", "simplex.remap_start", None),
    ("ucsm.tsuc", "solve_lp", "simplex.solve_lp", _lp_attrs("tsuc")),
    ("ucsm.dcopf", "solve_lp", "simplex.solve_lp", _lp_attrs("dcopf")),
    ("ucsm.grid", "build_matrices", "grid.build_matrices", None),
    ("ucsm.grid", "GridMatrices.angles", "grid.angles", None),
    ("ucsm.scenarios", "generate_dataset", "scenarios.generate_dataset",
     _dataset_attrs),
    ("ucsm.scenarios", "build_scenarios", "scenarios.build_scenarios", None),
    ("ucsm.scenarios", "dataset_to_csv", "scenarios.dataset_to_csv", None),
    ("ucsm.scenarios", "solve_dcopf", "dcopf.solve_dcopf", _dcopf_attrs),
    ("ucsm.scenarios", "check_feasibility", "dcopf.check_feasibility", None),
    ("ucsm.svm", "fit_standardizer", "svm.fit_standardizer", None),
    ("ucsm.svm", "Standardizer.transform", "svm.transform", None),
    ("ucsm.svm", "train_svm", "svm.train_svm", _train_attrs),
    ("ucsm.svm", "unscale_hyperplane", "svm.unscale_hyperplane", None),
    ("ucsm.svm", "evaluate", "svm.evaluate", None),
    ("ucsm.svm", "model_to_text", "svm.model_to_text", None),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name) or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans while installed; restores every patched name on exit."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, attrs or None].
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self):
        self.absent = []
        for module, path, name, attrs in WRAPS:
            target = _resolve(module, path)
            if target is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr = target
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, attrs))
            self._patches.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name, attrs):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced


def _tail(ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_MIN samples
    beyond it; the median when there are too few samples for any tail."""
    n = len(ms)
    if n == 0:
        return 0.0, 0.0
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN:
            return pct, float(np.percentile(ms, pct))
    return 50.0, float(np.percentile(ms, 50.0))


def _lp_caller(spans: list[list], span: list) -> str:
    """dcopf, or node or dispatch for a TSUC LP told apart by its column
    count: a node LP has 3GT+GSTK columns, a dispatch LP GTK."""
    if span[4]["via"] == "dcopf":
        return "dcopf"
    parent = span[3]
    while parent >= 0 and spans[parent][0] != "tsuc.solve_tsuc":
        parent = spans[parent][3]
    if parent < 0:
        return "other"
    g, s, t, k = spans[parent][4]["dims"]
    n = span[4]["n"]
    if n == 3 * g * t + g * s * t * k:
        return "node"
    if n == g * t * k:
        return "dispatch"
    return "other"


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer counts, times and self times for one traced pass.

    ``spans`` are one pass's ``Tracer.spans``; ``wall_s`` is that traced
    pass's timed section.
    """
    out: dict[str, float] = {}
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[3] >= 0:
            child[sp[3]] += sp[2] - sp[1]
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    top = 0.0
    for i, sp in enumerate(spans):
        dur = sp[2] - sp[1]
        self_by_layer[sp[0].split(".")[0]] += dur - child[i]
        if sp[3] < 0:
            top += dur
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = self_by_layer[layer]
    out["layer.bench.self_s"] = max(wall_s - top, 0.0)
    out["trace.coverage_pct"] = 100.0 * top / wall_s if wall_s > 0 else 0.0
    out["trace.spans"] = float(len(spans))

    def total(name, pred=lambda sp: True):
        sel = [sp for sp in spans if sp[0] == name and pred(sp)]
        return len(sel), sum(sp[2] - sp[1] for sp in sel)

    # Simplex, split by caller.
    lp = {c: [] for c in LP_CALLERS}
    for sp in spans:
        if sp[0] == "simplex.solve_lp":
            lp.setdefault(_lp_caller(spans, sp), []).append(sp)
    for caller in LP_CALLERS:
        sel = lp[caller]
        secs = sum(sp[2] - sp[1] for sp in sel)
        iters = sum(sp[4]["iters"] for sp in sel)
        ms = [1e3 * (sp[2] - sp[1]) for sp in sel]
        pct, tail = _tail(ms)
        pre = f"simplex.{caller}."
        out[pre + "calls"] = float(len(sel))
        out[pre + "s"] = secs
        out[pre + "iters"] = float(iters)
        out[pre + "iters_per_call"] = iters / len(sel) if sel else 0.0
        out[pre + "us_per_iter"] = 1e6 * secs / iters if iters else 0.0
        out[pre + "warm_calls"] = float(sum(sp[4]["warm"] for sp in sel))
        out[pre + "nonoptimal"] = float(sum(not sp[4]["optimal"] for sp in sel))
        out[pre + "p50_ms"] = float(np.percentile(ms, 50)) if ms else 0.0
        out[pre + "ptail_ms"] = tail
        out[pre + "ptail_pct"] = pct
        out[pre + "a_mb_max"] = max(
            (8.0 * sp[4]["m"] * sp[4]["n"] / MB for sp in sel), default=0.0)
    out["simplex.other.calls"] = float(len(lp.get("other", [])))

    # TSUC branch and bound.
    solves = [sp for sp in spans if sp[0] == "tsuc.solve_tsuc"]
    out["tsuc.solves"] = float(len(solves))
    out["tsuc.nodes"] = float(sum(sp[4]["nodes"] for sp in solves))
    out["tsuc.lp_solves"] = float(sum(sp[4]["lp_solves"] for sp in solves))
    out["tsuc.self_s"] = sum(sp[2] - sp[1] - child[i]
                             for i, sp in enumerate(spans)
                             if sp[0] == "tsuc.solve_tsuc")
    out["tsuc.build_s"] = total("tsuc.build_milp")[1]
    calls, secs = total("simplex.remap_start")
    out["tsuc.remap.calls"], out["tsuc.remap.s"] = float(calls), secs
    in_tsuc = {i for i, sp in enumerate(spans) if sp[0] == "tsuc.solve_tsuc"}
    calls, secs = total("grid.angles", lambda sp: sp[3] in in_tsuc)
    out["tsuc.angles.calls"], out["tsuc.angles.s"] = float(calls), secs
    for mode in ("full", "surrogate"):
        sel = {i for i in in_tsuc if spans[i][4]["mode"] == mode}
        out[f"tsuc.{mode}.s"] = sum(spans[i][2] - spans[i][1] for i in sel)
        rows = [sp[4]["m"] for sp in spans
                if sp[0] == "simplex.solve_lp" and sp[3] in sel
                and _lp_caller(spans, sp) == "node"]
        out[f"tsuc.{mode}.rows_built_max"] = float(max(rows, default=0))
        nominal = 0  # 2·|L|·S·T flow rows or S·T surrogate rows per solve
        if sel:
            attrs = spans[min(sel)][4]
            _, s, t, _ = attrs["dims"]
            nominal = (2 * attrs["n_lines"] if mode == "full" else 1) * s * t
        out[f"tsuc.{mode}.rows_nominal"] = float(nominal)

    # DCOPF and the dataset generator.
    for kind, pred in (("constrained", lambda sp: sp[4]["constrained"]),
                       ("relaxed", lambda sp: not sp[4]["constrained"])):
        calls, secs = total("dcopf.solve_dcopf", pred)
        out[f"dcopf.{kind}.calls"], out[f"dcopf.{kind}.s"] = float(calls), secs
    calls, secs = total("dcopf.check_feasibility")
    out["dcopf.label.calls"], out["dcopf.label.s"] = float(calls), secs
    gens = [i for i, sp in enumerate(spans)
            if sp[0] == "scenarios.generate_dataset"]
    out["scenarios.generate_s"] = sum(spans[i][2] - spans[i][1] for i in gens)
    out["scenarios.self_s"] = sum(spans[i][2] - spans[i][1] - child[i]
                                  for i in gens)
    attempts = out["dcopf.constrained.calls"] + out["dcopf.relaxed.calls"]
    kept = sum(spans[i][4]["samples"] for i in gens)
    out["scenarios.accept_pct"] = 100.0 * kept / attempts if attempts else 0.0

    # SVM.
    trains = [sp for sp in spans if sp[0] == "svm.train_svm"]
    passes = sum(sp[4]["passes"] for sp in trains)
    train_s = sum(sp[2] - sp[1] for sp in trains)
    out["svm.passes"] = float(passes)
    out["svm.train_s"] = train_s
    out["svm.s_per_pass"] = train_s / passes if passes else 0.0
    out["svm.converged"] = float(sum(sp[4]["converged"] for sp in trains))
    out["svm.standardize_s"] = (total("svm.fit_standardizer")[1]
                                + total("svm.transform")[1])
    return out


def setup_metrics(spans: list[list]) -> dict[str, float]:
    """Layer times inside one traced set-up (they move ``setup_s``)."""
    def secs(name):
        return sum(sp[2] - sp[1] for sp in spans if sp[0] == name)
    return {"grid.build_matrices_s": secs("grid.build_matrices"),
            "scenarios.build_scenarios_s": secs("scenarios.build_scenarios")}
