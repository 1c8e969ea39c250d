"""Machine-speed samples interleaved with the timed calls.

The shared virtual machines this benchmark runs on change speed while it
runs: identical work took 7.4 s in one run and 11.7 s a few minutes later,
with CPU time equal to wall time and no steal. No statistic of the raw
times within a 36 s run removes a drift that lasts minutes, so each run
also measures the machine's speed while it works.

Part of the slowness is steal: the host runs something else on the
virtual CPU, and the process waits. CPU time leaves steal out, so the
benchmark scales CPU times; the process runs on one thread, so on a
quiet machine its CPU time is its wall time. The rest of the slowness
also stretches CPU time: the same core simply runs slower at times. To
measure that, a speed sample times a fixed kernel in the benchmark's own
code, matrix products and a pure-Python loop, the two kinds of work the
program does. It calls no ``ucsm`` code, so a change to the program
cannot move it. Each workload names the kernel whose operands match its
own (``KERNELS``): small LPs slow down with small operands, large ones
with large operands, and a kernel of the wrong size tracked the machine
worse than none.

A ``Pacer`` takes a sample at the start and end of every timed operation
and, inside it, before a call through one of ``HOOKS`` when
``INTERVAL_S`` has passed since the last sample: the LP solves of the
TSUC and DCOPF layers and SVM training. ``Pacer.timed`` then gives the
operation's wall and CPU time without the samples taken inside it, and
its scale: the kernel's ``ref_s`` over the mean CPU time of the
operation's samples (the mean, since the core's speed flips between
states and the operation's time follows the share of each). CPU time
times scale is the operation's time at the reference speed.

Traced passes time their calls with a plain ``Stopwatch``, so no span
holds a sample.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# (module, function): calls the program makes between its units of work.
HOOKS = (("ucsm.tsuc", "solve_lp"), ("ucsm.dcopf", "solve_lp"),
         ("ucsm.svm", "train_svm"))
INTERVAL_S = 0.4
# Samples run and thrown away first: the first runs of a kernel are slow.
WARMUP = 5


def _small_work(a: np.ndarray, x: np.ndarray, reps: int) -> None:
    """Many small numpy calls and a short loop, as in tiny-LP pivots."""
    seen = {}
    for i in range(reps):
        y = a @ x
        j = int(np.argmax(y))
        x = y / y[j]
        seen[i % 97] = (j, int(np.count_nonzero(x > 0.5)))
        s = 0
        for k in range(40):
            s += k * k % 11


def _product_work(a: np.ndarray, x: np.ndarray, reps: int) -> None:
    """Products with a matrix and its transpose, and a loop."""
    for _ in range(reps):
        y = a @ x
        z = a.T @ (y / y.max())
        x = z / z.max()
        s = 0
        for k in range(200):
            s += k * k % 11


@dataclass(frozen=True)
class Kernel:
    """Fixed work timed as a speed sample: ``reps`` rounds of ``work`` on
    a ``shape`` matrix. ``ref_s`` is its time at the reference speed,
    about its median on a shared 2-core Xeon virtual machine at 2.0 GHz."""

    shape: tuple[int, int]
    reps: int
    work: Callable[[np.ndarray, np.ndarray, int], None]
    ref_s: float


# Operands sized like each workload's LPs: "small" stays in the core's
# first-level cache (the DCOPF LPs of learn), "medium" in its own 2 MB
# cache (uc-exact's ~320-column node LPs), and "large", 7.6 MB like
# uc-gap's node LPs, streams from the cache the cores share.
KERNELS = {
    "small": Kernel(shape=(48, 48), reps=1500, work=_small_work,
                    ref_s=0.018),
    "medium": Kernel(shape=(200, 320), reps=100, work=_product_work,
                     ref_s=0.005),
    "large": Kernel(shape=(600, 1650), reps=10, work=_product_work,
                    ref_s=0.008),
}

_sampled_s = 0.0


def sampled_seconds() -> float:
    """Seconds spent in speed samples so far, for timers that must leave
    them out."""
    return _sampled_s


def operands(kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(0))
    return rng.random(kernel.shape), rng.random(kernel.shape[1])


def run_kernel(kernel: Kernel, a: np.ndarray, x: np.ndarray) -> float:
    """CPU seconds one run of ``kernel`` on its operands takes now."""
    c0 = time.process_time()
    kernel.work(a, x, kernel.reps)
    return time.process_time() - c0


class Stopwatch:
    """Times a call with no speed samples, and so with a scale of 1."""

    def timed(self, fn, *args, **kwargs):
        """Call ``fn``; return (result, exception, wall s, CPU s, scale):
        the call's CPU time times ``scale`` is its time at the reference
        speed."""
        t0, c0 = time.perf_counter(), time.process_time()
        out, err = None, None
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # the caller counts it as failed
            err = exc
        return (out, err, time.perf_counter() - t0, time.process_time() - c0,
                1.0)


class Pacer(Stopwatch):
    """Patches ``HOOKS`` while entered; records each sample's seconds."""

    def __init__(self, kernel: str = "small"):
        self.kernel = KERNELS[kernel]
        self._operands = operands(self.kernel)
        for _ in range(WARMUP):
            run_kernel(self.kernel, *self._operands)
        self.samples: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last = 0.0
        self._sampled_cpu_s = 0.0

    def sample(self) -> None:
        global _sampled_s
        start = time.perf_counter()
        self.samples.append(run_kernel(self.kernel, *self._operands))
        self._sampled_cpu_s += self.samples[-1]
        self._last = time.perf_counter()
        _sampled_s += self._last - start

    def _hook(self, fn):
        def paced(*args, **kwargs):
            if time.perf_counter() - self._last >= INTERVAL_S:
                self.sample()
            return fn(*args, **kwargs)
        return paced

    def __enter__(self) -> "Pacer":
        for mod_name, attr in HOOKS:
            try:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                continue  # a renamed hook only costs samples
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._hook(fn))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def timed(self, fn, *args, **kwargs):
        """As ``Stopwatch.timed``, the times without the samples taken
        during the call, and the scale the kernel's reference time over
        the mean of the call's samples."""
        self.sample()
        first, wall0, cpu0 = (len(self.samples) - 1, _sampled_s,
                              self._sampled_cpu_s)
        out, err, wall, cpu, _ = super().timed(fn, *args, **kwargs)
        wall -= _sampled_s - wall0
        cpu -= self._sampled_cpu_s - cpu0
        self.sample()
        speed = statistics.fmean(self.samples[first:])
        return out, err, wall, cpu, self.kernel.ref_s / speed
