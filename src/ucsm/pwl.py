"""Piecewise-linear over-approximation of convex quadratic generation costs.

Secant segments over [p_min, p_max] with equal-width breakpoints: exact at
the breakpoints and >= the quadratic everywhere between them, so the LP cost
model never undercuts the true cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Generator


@dataclass(frozen=True)
class PwlCost:
    breakpoints: np.ndarray  # K+1 points spanning [p_min, p_max]
    slopes: np.ndarray       # K secant slopes, non-decreasing for convex cost
    base_value: float        # quadratic cost at p_min (no-load term excluded)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def value(self, p: float) -> float:
        """PWL cost at dispatch level p (clipped to the modeled interval)."""
        fill = np.clip(p - self.breakpoints[:-1], 0.0, self.widths)
        return self.base_value + float(self.slopes @ fill)


def pwl_cost(gen: Generator, segments: int) -> PwlCost:
    """Equal-width secant linearization of the unit's quadratic cost."""
    if segments < 1:
        raise ValueError("segments must be >= 1")
    bp = np.linspace(gen.p_min, gen.p_max, segments + 1)
    vals = gen.cost(bp)
    widths = np.diff(bp)
    with np.errstate(invalid="ignore", divide="ignore"):
        slopes = np.where(widths > 0, np.diff(vals) / np.where(widths > 0, widths, 1.0),
                          gen.c1 + 2.0 * gen.c2 * gen.p_min)
    return PwlCost(breakpoints=bp, slopes=slopes, base_value=float(vals[0]))
