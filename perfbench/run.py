"""Benchmark runner for ucsm: one workload at one seed, one JSON result line.

    python3 perfbench/run.py --workload uc-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The benchmark is a single process with one
caller making sequential calls into the ``ucsm`` Python API (a closed loop).
It repeats the workload's pass while another pass still fits in
``--seconds`` (always at least one) and reports medians over passes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes (at least one of each) and prints the per-layer
metrics, the tracing overhead among them. Human-readable report lines come
first; the last line of standard output is the JSON result. The full report
and the recorded spans are written under ``.perfbench_out/`` in the
checkout. Exits 2 without a result when the checkout has no ``src/ucsm``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("uc-exact", "uc-gap", "learn")
SETUP_REPEATS = 9
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("default", "tiny"), default="default",
                   help="tiny runs the same code paths on small inputs "
                        "(self-tests)")
    return p.parse_args(argv)


def single_blas_thread() -> int:
    """Run BLAS on one thread, whatever the environment asks for, and
    return ``nproc``; must precede the numpy import. A second OpenBLAS
    thread spins while idle: it doubles the CPU time of the small-LP
    workloads and leaves no core for the rest of the machine."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc: int, loadavg: tuple) -> dict:
    import platform

    import numpy as np

    lines = sum(len(f.read_text().splitlines())
                for f in sorted((SRC / "ucsm").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_start": [round(v, 2) for v in loadavg],
        "commit": git_commit(),
        "src_ucsm_lines": lines,
    }


def import_seconds() -> tuple[float, float]:
    """(wall, CPU) seconds of the import of numpy, ucsm and the benchmark
    in a fresh interpreter (the in-process import happens once, too few
    to take a median)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(SRC)]))
    probe = subprocess.run(
        [sys.executable, "-c", "import time; "
         "t, c = time.perf_counter(), time.process_time(); "
         "import tracer, workloads; "
         "print(time.perf_counter() - t, time.process_time() - c)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    wall, cpu = probe.stdout.split()
    return float(wall), float(cpu)


def setup_seconds(wl, seed: int, clock) -> tuple[float, float, dict]:
    """(raw wall, scaled) set-up seconds and the state: the medians of
    ``SETUP_REPEATS`` imports and of as many workload set-ups. An import's
    CPU time in its interpreter is scaled by the speed samples around
    it."""
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        probe, exc, _, _, scale = clock.timed(import_seconds)
        if exc is not None:
            raise exc
        imports.append((probe[0], probe[1] * scale))
    for _ in range(SETUP_REPEATS):
        state, exc, wall, cpu, scale = clock.timed(wl.setup, seed)
        if exc is not None:
            raise exc
        setups.append((wall, cpu * scale))
    raw, scaled = (statistics.median(r[i] for r in imports)
                   + statistics.median(r[i] for r in setups) for i in (0, 1))
    return raw, scaled, state


def git_commit() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_passes(wl, state, seconds: float, clock, tracer_cls=None):
    """Run passes while one more fits in ``seconds``; at least one.

    Untraced passes are timed by ``clock``, a ``pacer.Pacer``. With
    ``tracer_cls`` the passes alternate untraced/traced, starting
    untraced, and at least one of each runs. Returns (untraced passes,
    traced passes as (result, spans, absent names)).
    """
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        if tracer_cls is not None and len(plain) > len(traced):
            with tracer_cls() as tr:
                res = wl.run_pass(state)
            traced.append((res, tr.spans, tr.absent))
        else:
            with clock:
                res = wl.run_pass(state, clock)
            plain.append(res)
        longest = max(longest, time.perf_counter() - t0)
        done = tracer_cls is None or traced
        if done and time.perf_counter() - start + longest > seconds:
            return plain, traced


def median_dict(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ucsm" / "__init__.py").is_file():
        print(f"error: no ucsm sources under {SRC}", file=sys.stderr)
        return 2
    nproc = single_blas_thread()
    loadavg = os.getloadavg()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import pacer
    import tracer
    import workloads

    wl = workloads.make(args.workload, args.size)
    clock = pacer.Pacer(wl.p["kernel"])
    raw_setup_s, setup_s, state = setup_seconds(wl, args.seed, clock)
    reference = workloads.load_reference()

    plain, traced = timed_passes(wl, state, args.seconds, clock,
                                 tracer.Tracer if args.trace else None)
    attempted, problems, fidelity = 0, [], {}
    for res in plain + [t[0] for t in traced]:
        bad, fidelity = wl.check(state, res, reference)
        attempted += len(res.ops)
        problems += bad
    failed = len(problems)

    wall_s = statistics.median(p.wall_s for p in plain)
    stages = median_dict([wl.stage_seconds(p) for p in plain])
    stages["cpu_s"] = statistics.median(p.cpu_s for p in plain)
    stages["wall_s"] = wall_s
    stages["raw_setup_s"] = raw_setup_s
    stages["speed_sample_s"] = statistics.median(clock.samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = metric_units()
    if args.trace:
        with tracer.Tracer() as tr:
            wl.setup(args.seed)
        layer = median_dict([tracer.layer_metrics(spans, res.wall_s)
                             for res, spans, _ in traced])
        layer.update(tracer.setup_metrics(tr.spans))
        traced_wall = statistics.median(res.wall_s for res, _, _ in traced)
        layer["trace.wall_s"] = traced_wall
        layer["trace.untraced_wall_s"] = wall_s
        layer["trace.overhead_s"] = traced_wall - wall_s
        layer["trace.overhead_pct"] = 100.0 * (traced_wall - wall_s) / wall_s
        absent = traced[0][2]
        layer["trace.absent"] = float(len(absent))
        metrics = {k: layer[k] for k in units["per_layer"]}
    else:
        absent = []
        e2e = {"scaled_time_s": statistics.median(p.scaled_s for p in plain),
               "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {k: e2e[k] for k in units["end_to_end"]}

    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "passes": len(plain), "traced_passes": len(traced),
        "env": environment(nproc, loadavg),
        "stages": stages, "fidelity": fidelity, "problems": problems,
        "absent": absent, "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted if attempted else 1.0,
        "metrics": metrics,
    }
    if args.trace:
        report["per_layer"] = layer
    print_report(report, units)
    write_outputs(args, report, traced)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units["all"][k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def metric_units() -> dict:
    """Metric names and units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"end_to_end": [m["name"] for m in spec["end_to_end"]],
           "per_layer": [m["name"] for m in spec["per_layer"]], "all": {}}
    for m in spec["end_to_end"] + spec["per_layer"]:
        out["all"][m["name"]] = m["unit"]
    return out


def print_report(report: dict, units: dict) -> None:
    env = report["env"]
    print(f"# ucsm benchmark: workload {report['workload']} seed "
          f"{report['seed']} size {report['size']} trace {report['trace']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# passes untraced {report['passes']} traced "
          f"{report['traced_passes']}")
    for name, value in report["stages"].items():  # all in seconds
        print(f"{name} {value:.6g} s")
    for name, value in report["metrics"].items():
        print(f"{name} {value:.6g} {units['all'][name]}")
    print(f"fail_rate {report['fail_rate']:.6g} fraction "
          f"({report['failed']} failed of {report['attempted']} attempted)")
    for name, value in report["fidelity"].items():
        print(f"# fidelity {name} {value}")
    for name in report["absent"]:
        print(f"# absent {name}")
    for line in report["problems"]:
        print(f"# FAILED {line}")


def write_outputs(args, report: dict, traced) -> None:
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if traced:
        with (OUT_DIR / f"{stem}.spans.jsonl").open("w") as fh:
            for i, (_, spans, _) in enumerate(traced):
                for name, start, end, parent, attrs in spans:
                    fh.write(json.dumps({"pass": i, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent,
                                         "attrs": attrs}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
