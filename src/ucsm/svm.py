"""Class-weighted linear SVM: standardization, dual coordinate descent,
hyperplane extraction back to physical units, and classification metrics.

The trainer solves the L1-loss soft-margin dual with per-class penalties.
The bias is absorbed as an extra constant feature during optimization and
split back out of the weight vector afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, FeatureMismatch, SingleClassData,
                     field_reader, finite_float)

MARGIN_TOL = 1e-9  # violations deeper than this leave the margin
COEFF_PRINT_FLOOR = 1e-3  # relative magnitude below which a report prints 0


@dataclass(frozen=True)
class Standardizer:
    """Per-feature shift/scale fitted on a training split (n-divisor std).

    Constant features are dropped; ``kept`` maps retained column positions
    back to original feature indices.
    """

    mean: np.ndarray      # per retained feature
    std: np.ndarray       # per retained feature, all > 0
    kept: np.ndarray      # original indices of retained features
    n_features: int       # original feature count

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected {self.n_features} features, got {x.shape[1]}"
            )
        return (x[:, self.kept] - self.mean) / self.std


def fit_standardizer(x: np.ndarray) -> Standardizer:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples to fit a standardizer")
    mean = x.mean(axis=0)
    std = x.std(axis=0)  # population convention
    kept = np.nonzero(std > 0)[0]
    return Standardizer(mean=mean[kept], std=std[kept], kept=kept,
                        n_features=x.shape[1])


@dataclass(frozen=True)
class SvmConfig:
    """Training settings; the defaults are those of ``ucsm train``."""

    c_positive: float = 1.0
    c_negative: float = 10.0
    tolerance: float = 1e-4
    max_passes: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if not (self.c_negative >= self.c_positive > 0):
            raise ValueError("require c_negative >= c_positive > 0")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")


@dataclass(frozen=True)
class Hyperplane:
    """Decision rule sign(w.phi + b) in both scaled and physical units.

    ``weights_physical`` is indexed over the full original feature vector;
    features the standardizer dropped carry weight zero.
    """

    weights_scaled: np.ndarray
    bias_scaled: float
    weights_physical: np.ndarray
    bias_physical: float
    feature_names: tuple[str, ...]

    def decision(self, x: np.ndarray) -> np.ndarray:
        """Decision values on raw physical features."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.weights_physical.size:
            raise FeatureMismatch(
                f"expected {self.weights_physical.size} features, got {x.shape[1]}"
            )
        return x @ self.weights_physical + self.bias_physical

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Labels in {-1, +1}; a decision value of exactly 0 maps to +1."""
        d = self.decision(x)
        return np.where(d >= 0.0, 1, -1)

    def report_text(self) -> str:
        """Human-readable rule with negligible coefficients printed as 0."""
        w = self.weights_physical
        floor = COEFF_PRINT_FLOOR * (np.abs(w).max() if w.size else 0.0)
        terms = []
        for name, wj in zip(self.feature_names, w):
            val = 0.0 if abs(wj) < floor else wj
            if val != 0.0:
                terms.append(f"{val:+.4f}*{name}")
        terms.append(f"{self.bias_physical:+.4f}")
        return " ".join(terms) + " >= 0"


@dataclass
class TrainReport:
    dual_trace: np.ndarray  # dual objective after each pass
    passes: int
    converged: bool
    margin: float = np.nan


def train_svm(
    x_scaled: np.ndarray,
    y: np.ndarray,
    config: SvmConfig,
    feature_names: tuple[str, ...],
) -> tuple[Hyperplane, TrainReport]:
    """Dual coordinate descent on the class-weighted L1-loss linear SVM.

    Each pass visits the samples in a seeded random order. Visits that
    provably leave their alpha where it is are certified in bulk and
    skipped; every other visit takes the coordinate step, so the iterates
    are bit for bit those of one step per visit.

    Stops when the projected-gradient range over a full pass drops below
    ``config.tolerance``; otherwise returns the best iterate after
    ``max_passes`` with ``converged=False``.
    """
    x = np.atleast_2d(np.asarray(x_scaled, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, d = x.shape
    if y.size != n:
        raise DimensionMismatch(f"{n} samples but {y.size} labels")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise SingleClassData("training data contains a single class")

    # Bias folded in as a constant feature; w_aug[-1] becomes the bias.
    xa = np.hstack([x, np.ones((n, 1))])
    cvec = np.where(y > 0, config.c_positive, config.c_negative)
    qdiag = np.einsum("ij,ij->i", xa, xa)
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    rng = np.random.Generator(np.random.PCG64(config.rng_seed))
    # In any summation order, y[i] * (xa[i] @ w) lies within gamma_{d+2}
    # * sum_j |y[i] xa[i, j] w[j]| <= gamma_{d+2} * row_norm[i] * ||w|| of
    # its exact value, so a bulk product and the step's own one differ by
    # less than tol below: a bulk value at least tol from 1 tells on which
    # side of 0 the step's g falls.
    row_norm = np.abs(y) * np.sqrt(qdiag)
    tol_scale = 4 * (d + 2) * np.finfo(float).eps

    trace: list[float] = []
    converged = False
    passes = 0
    for passes in range(1, config.max_passes + 1):
        pg_max, pg_min = -np.inf, np.inf
        perm = rng.permutation(n)
        visited = 0
        k = 0
        while k < n:
            base, k = k, n
            # Certify in bulk the visits that cannot move alpha: alpha = 0
            # with g >= 0, or alpha = C with g <= 0. Every other visit from
            # base on runs the plain coordinate step, until one moves w.
            yxw = y * (xa @ w)
            tol = (tol_scale * np.sqrt(w @ w)) * row_norm
            idle = (((alpha <= 0.0) & (yxw - tol >= 1.0))
                    | ((alpha >= cvec) & (yxw + tol <= 1.0)))
            for j in (~idle[perm[base:]]).nonzero()[0]:
                i = perm[base + j]
                visited += 1
                g = y[i] * (xa[i] @ w) - 1.0
                if alpha[i] <= 0.0:
                    pg = min(g, 0.0)
                elif alpha[i] >= cvec[i]:
                    pg = max(g, 0.0)
                else:
                    pg = g
                pg_max = max(pg_max, pg)
                pg_min = min(pg_min, pg)
                if pg != 0.0:
                    new = min(max(alpha[i] - g / qdiag[i], 0.0), cvec[i])
                    if new != alpha[i]:
                        w += (new - alpha[i]) * y[i] * xa[i]
                        alpha[i] = new
                        k = base + j + 1
                        break
        if visited < n:  # a certified visit has pg = 0
            pg_max, pg_min = max(pg_max, 0.0), min(pg_min, 0.0)
        trace.append(float(alpha.sum() - 0.5 * (w @ w)))
        if pg_max - pg_min < config.tolerance:
            converged = True
            break

    h = Hyperplane(
        weights_scaled=w[:d].copy(),
        bias_scaled=float(w[d]),
        weights_physical=w[:d].copy(),
        bias_physical=float(w[d]),
        feature_names=tuple(feature_names),
    )
    report = TrainReport(
        dual_trace=np.array(trace),
        passes=passes,
        converged=converged,
    )
    report.margin = compute_margin(h, x, y)
    return h, report


def unscale_hyperplane(h: Hyperplane, s: Standardizer) -> Hyperplane:
    """Express a scaled-space hyperplane in physical feature units.

    w_phys[j] = w_scaled[j] / std[j]; the bias absorbs the mean shift.
    Dropped (constant) features get weight zero.
    """
    if h.weights_scaled.size != s.kept.size:
        raise DimensionMismatch(
            f"hyperplane has {h.weights_scaled.size} weights, "
            f"standardizer retains {s.kept.size} features"
        )
    w_phys = np.zeros(s.n_features)
    w_phys[s.kept] = h.weights_scaled / s.std
    b_phys = h.bias_scaled - float((h.weights_scaled * s.mean / s.std).sum())
    return Hyperplane(
        weights_scaled=h.weights_scaled,
        bias_scaled=h.bias_scaled,
        weights_physical=w_phys,
        bias_physical=b_phys,
        feature_names=h.feature_names,
    )


@dataclass(frozen=True)
class ConfusionMatrix:
    true_neg: int
    false_pos: int
    false_neg: int
    true_pos: int

    @property
    def total(self) -> int:
        return self.true_neg + self.false_pos + self.false_neg + self.true_pos

    @property
    def accuracy(self) -> float:
        return (self.true_neg + self.true_pos) / self.total

    @property
    def false_positive_rate(self) -> float:
        actual_neg = self.true_neg + self.false_pos
        return self.false_pos / actual_neg if actual_neg else 0.0


def evaluate(h: Hyperplane, x: np.ndarray, y: np.ndarray) -> ConfusionMatrix:
    """Confusion counts on raw physical features (negative = infeasible)."""
    y = np.asarray(y).ravel()
    pred = h.predict(x)
    return ConfusionMatrix(
        true_neg=int(((y == -1) & (pred == -1)).sum()),
        false_pos=int(((y == -1) & (pred == 1)).sum()),
        false_neg=int(((y == 1) & (pred == -1)).sum()),
        true_pos=int(((y == 1) & (pred == 1)).sum()),
    )


def compute_margin(h: Hyperplane, x: np.ndarray, y: np.ndarray) -> float:
    """Geometric margin: min of y*(w.phi+b)/||w|| over correctly classified
    samples, ignoring violations deeper than ``MARGIN_TOL``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    d = x @ h.weights_physical + h.bias_physical
    norm = float(np.linalg.norm(h.weights_physical))
    if norm == 0.0:
        return 0.0
    vals = y * d / norm
    ok = vals >= -MARGIN_TOL
    return float(vals[ok].min()) if np.any(ok) else 0.0


# ---------------------------------------------------------------------------
# Model file round-trip

def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def model_to_text(
    h: Hyperplane,
    s: Standardizer,
    *,
    train_seed: int,
    margin: float,
) -> str:
    lines = [
        "feature_names=" + ",".join(h.feature_names),
        "w_scaled=" + _vec(h.weights_scaled),
        "b_scaled=" + repr(float(h.bias_scaled)),
        "w_physical=" + _vec(h.weights_physical),
        "b_physical=" + repr(float(h.bias_physical)),
        "standardizer_mean=" + _vec(s.mean),
        "standardizer_std=" + _vec(s.std),
        "standardizer_kept=" + ",".join(str(int(j)) for j in s.kept),
        "standardizer_n_features=" + str(s.n_features),
        "train_seed=" + str(train_seed),
        "margin=" + repr(float(margin)),
    ]
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> tuple[Hyperplane, Standardizer, int, float]:
    kv: dict[str, tuple[int, str]] = {}  # key -> (1-based line, value)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        kv[key.strip()] = (lineno, val.strip())
    required = ("feature_names", "w_scaled", "b_scaled", "w_physical",
                "b_physical", "standardizer_mean", "standardizer_std")
    for key in required:
        if key not in kv:
            raise FeatureMismatch(f"model file missing field '{key}'")

    _get = field_reader(kv)

    def _floats(raw):
        return np.array([finite_float(v) for v in raw.split(",") if v])

    h = Hyperplane(
        weights_scaled=_get("w_scaled", _floats),
        bias_scaled=_get("b_scaled", finite_float),
        weights_physical=_get("w_physical", _floats),
        bias_physical=_get("b_physical", finite_float),
        feature_names=tuple(n for n in kv["feature_names"][1].split(",") if n),
    )
    n_features = _get("standardizer_n_features", int,
                      str(h.weights_physical.size))
    kept = _get("standardizer_kept", lambda raw: (
        np.array([int(v) for v in raw.split(",") if v], dtype=int)
        if raw else np.arange(n_features)))
    s = Standardizer(mean=_get("standardizer_mean", _floats),
                     std=_get("standardizer_std", _floats),
                     kept=kept, n_features=n_features)
    sizes = (len(h.feature_names), h.weights_physical.size, n_features)
    if len(set(sizes)) > 1:
        raise FeatureMismatch(
            "model has %d feature names and %d physical weights; its "
            "standardizer covers %d features" % sizes
        )
    margin = _get("margin", finite_float) if "margin" in kv else float("nan")
    return h, s, _get("train_seed", int, "0"), margin
