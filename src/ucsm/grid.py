"""Static power-system model: case parsing and derived network matrices.

Case files are human-facing (MW units, per-unit reactances); angle solves
internally convert injections to per-unit on ``base_mva``. PTDF maps MW
injections directly to MW line flows, so no conversion is needed at that
interface.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ParseError, SingularMatrix, ValidationError, finite_float


@dataclass(frozen=True)
class Bus:
    id: int
    nominal_load: float  # MW

    def __post_init__(self):
        if self.nominal_load < 0:
            raise ValidationError(f"bus {self.id}: negative load")


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    reactance_x: float  # per unit
    limit: float        # MW

    def __post_init__(self):
        if not self.reactance_x > 0 or np.isinf(1.0 / self.reactance_x):
            raise ValidationError(f"line {self.from_bus}-{self.to_bus}: reactance "
                                  "must be > 0, with a finite susceptance 1/x")
        if self.limit <= 0:
            raise ValidationError(
                f"line {self.from_bus}-{self.to_bus}: limit must be > 0"
            )
        if self.from_bus == self.to_bus:
            raise ValidationError(f"line at bus {self.from_bus} is a self-loop")


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min: float
    p_max: float
    ramp_up: float
    ramp_down: float
    min_up: int
    min_down: int
    startup_cost: float
    shutdown_cost: float
    c0: float
    c1: float
    c2: float

    def __post_init__(self):
        if not 0 <= self.p_min <= self.p_max:
            raise ValidationError(f"generator at bus {self.bus}: bad capacity range")
        if self.ramp_up <= 0 or self.ramp_down <= 0:
            raise ValidationError(f"generator at bus {self.bus}: ramp limits must be > 0")
        if self.min_up < 1 or self.min_down < 1:
            raise ValidationError(f"generator at bus {self.bus}: min up/down must be >= 1")
        if self.c2 < 0:
            raise ValidationError(f"generator at bus {self.bus}: c2 must be >= 0")

    def cost(self, p: float) -> float:
        """Quadratic production cost, excluding the no-load term c0."""
        return self.c2 * p * p + self.c1 * p


@dataclass(frozen=True)
class WindUnit:
    bus: int
    mu_interval: tuple[float, float]    # MW
    sigma_interval: tuple[float, float]  # MW

    def __post_init__(self):
        for name, (a, b) in (("mu", self.mu_interval), ("sigma", self.sigma_interval)):
            if not 0 <= a <= b:
                raise ValidationError(f"wind at bus {self.bus}: bad {name} interval")


@dataclass(frozen=True)
class SystemCase:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    wind_units: tuple[WindUnit, ...]
    ref_bus: int
    base_mva: float = 100.0
    name: str = ""

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate bus ids")
        idset = set(ids)
        if self.ref_bus not in idset:
            raise ValidationError(f"ref_bus {self.ref_bus} not among buses")
        for ln in self.lines:
            if ln.from_bus not in idset or ln.to_bus not in idset:
                raise ValidationError(
                    f"line {ln.from_bus}-{ln.to_bus} references unknown bus"
                )
        if not self.generators:
            raise ValidationError("case has no generators")
        for g in self.generators:
            if g.bus not in idset:
                raise ValidationError(f"generator references unknown bus {g.bus}")
        for w in self.wind_units:
            if w.bus not in idset:
                raise ValidationError(f"wind unit references unknown bus {w.bus}")
        if not _connected(ids, self.lines):
            raise ValidationError("line graph is not connected")

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def n_gens(self) -> int:
        return len(self.generators)

    @property
    def n_wind(self) -> int:
        return len(self.wind_units)

    def bus_index(self, bus_id: int) -> int:
        for k, b in enumerate(self.buses):
            if b.id == bus_id:
                return k
        raise KeyError(bus_id)

    @property
    def ref_index(self) -> int:
        return self.bus_index(self.ref_bus)

    @property
    def loads(self) -> np.ndarray:
        return np.array([b.nominal_load for b in self.buses])

    @property
    def line_limits(self) -> np.ndarray:
        return np.array([ln.limit for ln in self.lines])

    def feature_names(self) -> list[str]:
        """Canonical feature layout: wind means, wind sigmas, dispatch."""
        w = self.n_wind
        return (
            [f"mu_{k + 1}" for k in range(w)]
            + [f"sigma_{k + 1}" for k in range(w)]
            + [f"pg_{k + 1}" for k in range(self.n_gens)]
        )

    def content_hash(self) -> str:
        text = repr((self.buses, self.lines, self.generators,
                     self.wind_units, self.ref_bus, self.base_mva))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _connected(ids: list[int], lines) -> bool:
    if not ids:
        return False
    adj: dict[int, list[int]] = {i: [] for i in ids}
    for ln in lines:
        adj[ln.from_bus].append(ln.to_bus)
        adj[ln.to_bus].append(ln.from_bus)
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(ids)


@dataclass
class GridMatrices:
    b_matrix: np.ndarray   # |B| x |B| susceptance Laplacian (1/x, per unit)
    ptdf: np.ndarray       # |L| x |B|, MW flow per MW injection
    reactance: np.ndarray  # |B| x |B| reduced b_matrix inverse, ref row/col 0
    gen_bus: np.ndarray    # (G,) bus index of each generator
    wind_bus: np.ndarray   # (W,) bus index of each wind unit
    base_mva: float        # the per-unit base of b_matrix

    def injection(self, load_mw, wind_mw, gen_mw=None) -> np.ndarray:
        """Net MW injection, buses on axis 0: wind plus dispatch minus load.

        ``wind_mw`` (W, ...) and ``gen_mw`` (G, ...) share the load's trailing
        shape; units on one bus are added in unit order. The result keeps
        the load's memory order.
        """
        inj = np.zeros_like(load_mw, dtype=float)
        np.add.at(inj, self.wind_bus, wind_mw)
        inj -= load_mw
        if gen_mw is not None:
            np.add.at(inj, self.gen_bus, gen_mw)
        return inj

    def flow_rows(self, limits, base_mw) -> tuple[np.ndarray, np.ndarray]:
        """Line limits as rows coef @ gen_mw <= rhs, +flow then -flow;
        ``base_mw`` (L, ...) is the flow of all other injections."""
        gen = self.ptdf[:, self.gen_bus]
        return (np.concatenate([gen, -gen]),
                np.concatenate([limits - base_mw, limits + base_mw]))

    def angles(self, injection_mw) -> np.ndarray:
        """Bus voltage angles (rad), ref at zero, of balanced MW injections
        with buses on axis 0 and any trailing shape."""
        return np.tensordot(self.reactance,
                            np.divide(injection_mw, self.base_mva), 1)


def build_matrices(case: SystemCase) -> GridMatrices:
    """Susceptance Laplacian, its reactance matrix and the PTDF built from
    it, and the bus index of every generator and wind unit."""
    def at(bus_ids) -> np.ndarray:
        return np.array([case.bus_index(b) for b in bus_ids], dtype=int)

    nb = case.n_buses
    fb = at(ln.from_bus for ln in case.lines)
    tb = at(ln.to_bus for ln in case.lines)
    x = np.array([ln.reactance_x for ln in case.lines])
    # Line by line: +1/x on both diagonal entries, -1/x on both others.
    bmat = np.zeros((nb, nb))
    with np.errstate(over="ignore"):  # 1/x of parallel lines can overflow
        np.add.at(bmat, (np.column_stack([fb, tb, fb, tb]),
                         np.column_stack([fb, tb, tb, fb])),
                  (1.0 / x)[:, None] * [1.0, 1.0, -1.0, -1.0])
    for bus, total in zip(case.buses, np.diag(bmat)):
        if not np.isfinite(total):
            raise ValidationError(f"bus {bus.id}: summed susceptance 1/x not finite")
    keep = np.arange(nb) != case.ref_index
    xfull = np.zeros((nb, nb))
    try:  # _connected makes B nonsingular: a tiny pivot comes from x's spread
        xfull[np.ix_(keep, keep)] = _inverse(bmat[np.ix_(keep, keep)])
    except SingularMatrix as exc:
        raise ValidationError(f"reactances too far apart to invert B: {exc}") from None
    ptdf = (xfull[fb] - xfull[tb]) / x[:, None]
    return GridMatrices(bmat, ptdf, xfull,
                        gen_bus=at(g.bus for g in case.generators),
                        wind_bus=at(w.bus for w in case.wind_units),
                        base_mva=case.base_mva)


def _inverse(a: np.ndarray) -> np.ndarray:
    """a⁻¹ by LU with partial pivoting; SingularMatrix at a pivot of at
    most 1e-12. Each column is substituted as its own vector, because one
    matrix solve rounds differently: the PTDF's last bits would move."""
    n = a.shape[0]
    lu = a.copy()
    piv = np.arange(n)
    for k in range(n):
        row = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[row, k]) <= 1e-12:
            raise SingularMatrix(f"pivot {lu[row, k]:.3e} at column {k}")
        lu[[k, row]] = lu[[row, k]]
        piv[[k, row]] = piv[[row, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    inv = np.empty((n, n))
    for j in range(n):
        x = (piv == j).astype(float)  # unit column j, rows permuted
        for k in range(1, n):
            x[k] -= lu[k, :k] @ x[:k]
        for k in range(n - 1, -1, -1):
            x[k] -= lu[k, k + 1:] @ x[k + 1:]
            x[k] /= lu[k, k]
        inv[:, j] = x
    return inv


# ---------------------------------------------------------------------------
# Case file parsing

_SECTIONS = ("config", "buses", "lines", "generators", "wind")
_CONFIG_KEYS = ("ref_bus", "base_mva")


def parse_case(text: str, name: str = "") -> SystemCase:
    """Parse the line-oriented case format into a validated SystemCase."""
    config: dict[str, tuple[int, float]] = {}  # key -> (line, value)
    buses: list[Bus] = []
    lines: list[Line] = []
    gens: list[Generator] = []
    wind: list[WindUnit] = []
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ParseError(lineno, f"unknown section [{section}]")
            continue
        if section is None:
            raise ParseError(lineno, "data before any section header")
        if section == "config":
            if "=" not in stripped:
                raise ParseError(lineno, "expected key = value")
            key, _, val = stripped.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ParseError(lineno, f"unknown [config] key {key!r}")
            try:
                config[key] = lineno, finite_float(val)
            except ValueError:
                raise ParseError(lineno, f"bad numeric value {val.strip()!r}") from None
            if key == "base_mva" and config[key][1] <= 0:
                raise ParseError(lineno, "base_mva must be > 0")
            continue
        fields = [f.strip() for f in stripped.split(",")]
        try:
            vals = [finite_float(f) for f in fields]
        except ValueError:
            raise ParseError(lineno, "a field is not a finite number in "
                                     f"{stripped!r}") from None
        try:
            if section == "buses":
                _expect(lineno, vals, 2)
                buses.append(Bus(_whole(lineno, vals[0]), vals[1]))
            elif section == "lines":
                _expect(lineno, vals, 4)
                lines.append(Line(_whole(lineno, vals[0]),
                                  _whole(lineno, vals[1]), vals[2], vals[3]))
            elif section == "generators":
                _expect(lineno, vals, 12)
                gens.append(Generator(_whole(lineno, vals[0]), vals[1], vals[2],
                                      vals[3], vals[4], _whole(lineno, vals[5]),
                                      _whole(lineno, vals[6]), vals[7], vals[8],
                                      vals[9], vals[10], vals[11]))
            elif section == "wind":
                _expect(lineno, vals, 5)
                wind.append(WindUnit(_whole(lineno, vals[0]), (vals[1], vals[2]),
                                     (vals[3], vals[4])))
        except ValidationError as exc:
            raise ParseError(lineno, str(exc)) from None

    if "ref_bus" not in config:
        raise ValidationError("missing ref_bus in [config]")
    return SystemCase(
        buses=tuple(buses),
        lines=tuple(lines),
        generators=tuple(gens),
        wind_units=tuple(wind),
        ref_bus=_whole(*config["ref_bus"]),
        base_mva=config.get("base_mva", (0, 100.0))[1],
        name=name,
    )


def _expect(lineno: int, vals: list, n: int):
    if len(vals) != n:
        raise ParseError(lineno, f"expected {n} fields, got {len(vals)}")


def _whole(lineno: int, value: float) -> int:
    """A field that names a bus or counts hours must be a whole number."""
    if not value.is_integer():
        raise ParseError(lineno, f"expected an integer, got {value!r}")
    return int(value)


def bundled_case_text(name: str) -> str:
    """Raw text of a bundled fixture case (ring3, sixbus, grid24)."""
    return (resources.files("ucsm.cases") / f"{name}.case").read_text()


def load_bundled_case(name: str) -> SystemCase:
    return parse_case(bundled_case_text(name), name=name)
