"""Monte-Carlo wind/load scenarios and the two-step labeled DCOPF dataset.

Every random quantity is drawn from a substream keyed on (seed, stage,
index) through numpy's SeedSequence, so sample generation is reproducible
and order-independent.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .dcopf import (check_feasibility, dispatch_segments,
                    merit_order_dispatch, solve_dcopf)
from .errors import (BalancingFailed, DimensionMismatch, ParseError,
                     field_reader, finite_float)
from .grid import GridMatrices, SystemCase, build_matrices
from .simplex import LpStatus

Z_MIN, Z_MAX, Z_STEP = -4.0, 4.0, 0.1
LOAD_FACTOR_LO, LOAD_FACTOR_HI = 0.7, 1.3
TRAIN_FRACTION = 0.8
BALANCE_RATIO = 0.8
BALANCE_ROUNDS = 50


@dataclass(frozen=True)
class Scenario:
    probability: float
    mu: np.ndarray                # MW per wind unit
    sigma: np.ndarray             # MW per wind unit
    wind_mw: np.ndarray           # (n_wind, horizon)
    load_multiplier: np.ndarray   # (n_buses, horizon)

    def loads(self, case: SystemCase) -> np.ndarray:
        """Per-bus MW demand matrix (n_buses, horizon)."""
        return case.loads[:, None] * self.load_multiplier


@dataclass
class Dataset:
    x: np.ndarray                 # (n, d) features, one row per sample
    y: np.ndarray                 # (n,) int labels in {-1, +1}
    feature_names: list[str]
    split_seed: int
    train_indices: np.ndarray
    test_indices: np.ndarray
    case_hash: str = ""

    def __len__(self) -> int:
        return len(self.y)

    @property
    def train(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x[self.train_indices], self.y[self.train_indices]

    @property
    def test(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x[self.test_indices], self.y[self.test_indices]

    def class_counts(self) -> tuple[int, int]:
        return int((self.y == 1).sum()), int((self.y == -1).sum())


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *key))))


def z_grid() -> np.ndarray:
    """The 81-point grid -4.0, -3.9, ..., 4.0."""
    steps = round((Z_MAX - Z_MIN) / Z_STEP)
    return np.round(Z_MIN + Z_STEP * np.arange(steps + 1), 10)


def wind_realization(mu, sigma, z):
    """mu + z*sigma, clamped at zero (power cannot go negative)."""
    return np.maximum(0.0, np.asarray(mu) + z * np.asarray(sigma))


def _draw_operating_point(case: SystemCase, rng: np.random.Generator):
    mu = np.array([rng.uniform(*w.mu_interval) for w in case.wind_units])
    sigma = np.array([rng.uniform(*w.sigma_interval) for w in case.wind_units])
    mult = rng.uniform(LOAD_FACTOR_LO, LOAD_FACTOR_HI, size=case.n_buses)
    return mu, sigma, mult


def feature_vector(mu, sigma, dispatch) -> np.ndarray:
    """[mu, sigma, p]: the fixed dataset and hyperplane feature ordering."""
    return np.concatenate([mu, sigma, dispatch])


def generate_dataset(
    case: SystemCase,
    n_target: int,
    rng_seed: int,
    *,
    mats: GridMatrices | None = None,
) -> Dataset:
    """Two-step labeled dataset: constrained runs (feasible by construction)
    plus line-limit-relaxed runs labeled individually, balanced per class.

    Each class is capped at ceil(n_target / 2); the relaxed stage keeps
    drawing until both the size target and the class-ratio floor are met or
    the balancing budget runs out.
    """
    if n_target < 50:
        raise ValueError("n_target must be >= 50")
    if mats is None:
        mats = build_matrices(case)
    cap = -(-n_target // 2)
    grid = z_grid()
    rows: list[np.ndarray] = []
    labels: list[int] = []
    n_pos = n_neg = 0

    # Step 1: constrained DCOPF, z swept over the grid; every optimal
    # operating point is feasible by construction.
    draw = 0
    while n_pos < cap and draw < BALANCE_ROUNDS * 10:
        rng = _rng(rng_seed, 1, draw)
        mu, sigma, mult = _draw_operating_point(case, rng)
        load = case.loads * mult
        for z in grid:
            if n_pos >= cap:
                break
            wind = wind_realization(mu, sigma, z)
            res = solve_dcopf(case, wind, load, mats=mats)
            if res.status is LpStatus.OPTIMAL:
                rows.append(feature_vector(mu, sigma, res.dispatch))
                labels.append(1)
                n_pos += 1
        draw += 1

    # Step 2: relaxed DCOPF, z sampled; labels from the line-limit check.
    # A round is drawn whole and dispatched in merit order in one batch; it
    # is then kept sample by sample, as the caps allow.
    slopes, widths, pmin, _ = dispatch_segments(case)
    batch = max(1, n_target // 10)
    for rnd in range(BALANCE_ROUNDS):
        if _balanced(n_pos, n_neg, n_target):
            break
        draws = []
        for k in range(batch):
            rng = _rng(rng_seed, 2, rnd * batch + k)
            mu, sigma, mult = _draw_operating_point(case, rng)
            z = grid[rng.integers(grid.size)]
            load, wind = case.loads * mult, wind_realization(mu, sigma, z)
            draws.append((mu, sigma, load, wind,
                          load.sum() - wind.sum() - pmin.sum()))
        mu, sigma, load, wind, net = map(np.array, zip(*draws))
        dispatch, ok = merit_order_dispatch(slopes, widths, pmin, net)
        round_labels = check_feasibility(
            case, mats.ptdf @ mats.injection(load.T, wind.T, dispatch.T))
        for k in np.flatnonzero(ok):
            label = int(round_labels[k])
            if label == 1 and n_pos >= cap:
                continue
            if label == -1 and n_neg >= cap:
                continue
            rows.append(feature_vector(mu[k], sigma[k], dispatch[k]))
            labels.append(label)
            if label == 1:
                n_pos += 1
            else:
                n_neg += 1
    if not _balanced(n_pos, n_neg, n_target):
        ratio = min(n_pos, n_neg) / max(n_pos, n_neg, 1)
        raise BalancingFailed(BALANCE_ROUNDS * batch, ratio)

    n = len(rows)
    n_train = round(TRAIN_FRACTION * n)
    perm = _rng(rng_seed, 3).permutation(n)
    return Dataset(
        x=np.array(rows),
        y=np.array(labels),
        feature_names=case.feature_names(),
        split_seed=rng_seed,
        train_indices=np.sort(perm[:n_train]),
        test_indices=np.sort(perm[n_train:]),
        case_hash=case.content_hash(),
    )


def _balanced(n_pos: int, n_neg: int, n_target: int) -> bool:
    if n_pos + n_neg < n_target or min(n_pos, n_neg) == 0:
        return False
    return min(n_pos, n_neg) / max(n_pos, n_neg) >= BALANCE_RATIO


def build_scenarios(
    case: SystemCase,
    n_scenarios: int,
    horizon: int,
    rng_seed: int,
) -> list[Scenario]:
    """Equiprobable wind/load scenarios over an hourly horizon."""
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    grid = z_grid()
    out = []
    for s in range(n_scenarios):
        rng = _rng(rng_seed, 4, s)
        mu = np.array([rng.uniform(*w.mu_interval) for w in case.wind_units])
        sigma = np.array([rng.uniform(*w.sigma_interval) for w in case.wind_units])
        z = float(grid[rng.integers(grid.size)])
        wind = np.repeat(wind_realization(mu, sigma, z)[:, None], horizon, axis=1)
        mult = rng.uniform(LOAD_FACTOR_LO, LOAD_FACTOR_HI,
                           size=(case.n_buses, horizon))
        out.append(Scenario(
            probability=1.0 / n_scenarios, mu=mu, sigma=sigma,
            wind_mw=wind, load_multiplier=mult,
        ))
    return out


# ---------------------------------------------------------------------------
# Dataset CSV round-trip

def dataset_to_csv(ds: Dataset) -> str:
    buf = io.StringIO()
    buf.write(f"# seed={ds.split_seed}\n")
    buf.write(f"# case_hash={ds.case_hash}\n")
    buf.write(f"# train_indices={','.join(map(str, ds.train_indices))}\n")
    buf.write(f"# test_indices={','.join(map(str, ds.test_indices))}\n")
    buf.write(",".join(ds.feature_names) + ",label\n")
    for features, label in zip(ds.x, ds.y):
        vals = ",".join(repr(float(v)) for v in features)
        buf.write(f"{vals},{label:+d}\n")
    return buf.getvalue()


def dataset_from_csv(text: str) -> Dataset:
    meta: dict[str, tuple[int, str]] = {}  # key -> (1-based line, value)
    header = None
    rows: list[list[float]] = []
    labels: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key.strip()] = (lineno, val.strip())
            continue
        if header is None:
            header = [h.strip() for h in line.split(",")]
            header_line = lineno
            if not header or header[-1] != "label":
                raise DimensionMismatch("dataset header must end with 'label'")
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise DimensionMismatch(
                f"row has {len(parts)} columns, header has {len(header)}"
            )
        try:
            features = [finite_float(v) for v in parts[:-1]]
            label = float(parts[-1])
        except ValueError:
            raise ParseError(lineno, "a field is not a finite number in "
                                     f"{line!r}") from None
        if label not in (1.0, -1.0):
            raise ParseError(lineno, "label must be +1 or -1, got "
                                     f"{parts[-1].strip()!r}")
        rows.append(features)
        labels.append(int(label))
    if header is None:
        raise DimensionMismatch("dataset file has no header row")

    _meta = field_reader(meta)

    def _ints(raw):
        return np.array([int(v) for v in raw.split(",") if v], dtype=int)

    def _split(key):
        """A non-empty list of sample indices in [0, n)."""
        if key not in meta:
            raise ParseError(header_line, f"missing '# {key}=' line")
        idx = _meta(key, _ints)
        if not idx.size or idx.min() < 0 or idx.max() >= len(rows):
            raise ParseError(meta[key][0], f"{key} must list indices in "
                                           f"[0, {len(rows)})")
        return idx

    return Dataset(
        x=np.array(rows),
        y=np.array(labels),
        feature_names=header[:-1],
        split_seed=_meta("seed", int, "0"),
        train_indices=_split("train_indices"),
        test_indices=_split("test_indices"),
        case_hash=_meta("case_hash", str),
    )
