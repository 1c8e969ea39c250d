"""Static power-system model: case parsing and derived network matrices.

Case files are human-facing (MW units, per-unit reactances); angle solves
internally convert injections to per-unit on ``base_mva``. PTDF maps MW
injections directly to MW line flows, so no conversion is needed at that
interface.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ParseError, ValidationError
from .linalg import lu_factor, lu_backsolve


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
        if self.reactance_x <= 0:
            raise ValidationError(
                f"line {self.from_bus}-{self.to_bus}: reactance must be > 0"
            )
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
    ref_index: int
    reduced_lu: tuple = field(repr=False)  # LU of b_matrix, ref row/col removed

    def angles(self, injection_mw: np.ndarray, base_mva: float) -> np.ndarray:
        """Bus voltage angles (rad) for a balanced MW injection vector, or
        for each column of an (N, k) matrix of them."""
        p = np.asarray(injection_mw, dtype=float) / base_mva
        keep = np.arange(p.shape[0]) != self.ref_index
        th_red = lu_backsolve(*self.reduced_lu, p[keep])
        theta = np.zeros(p.shape)
        theta[keep] = th_red
        return theta


def build_matrices(case: SystemCase) -> GridMatrices:
    """Susceptance Laplacian, PTDF matrix, and the reduced Laplacian's LU."""
    nb = case.n_buses
    bmat = np.zeros((nb, nb))
    for ln in case.lines:
        i = case.bus_index(ln.from_bus)
        j = case.bus_index(ln.to_bus)
        y = 1.0 / ln.reactance_x
        bmat[i, i] += y
        bmat[j, j] += y
        bmat[i, j] -= y
        bmat[j, i] -= y
    ref = case.ref_index
    keep = np.arange(nb) != ref
    lu = lu_factor(bmat[np.ix_(keep, keep)])  # SingularMatrix if disconnected
    # X[k] = angles for a unit injection at bus k (ref column zero).
    eye = np.eye(nb - 1)
    xred = np.column_stack([lu_backsolve(*lu, eye[:, k]) for k in range(nb - 1)])
    xfull = np.zeros((nb, nb))
    xfull[np.ix_(keep, keep)] = xred
    ptdf = np.zeros((case.n_lines, nb))
    for li, ln in enumerate(case.lines):
        i = case.bus_index(ln.from_bus)
        j = case.bus_index(ln.to_bus)
        ptdf[li] = (xfull[i] - xfull[j]) / ln.reactance_x
    return GridMatrices(bmat, ptdf, ref, lu)


# ---------------------------------------------------------------------------
# Case file parsing

_SECTIONS = ("config", "buses", "lines", "generators", "wind")


def parse_case(text: str, name: str = "") -> SystemCase:
    """Parse the line-oriented case format into a validated SystemCase."""
    config: dict[str, float] = {}
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
            try:
                config[key.strip()] = float(val)
            except ValueError:
                raise ParseError(lineno, f"bad numeric value {val.strip()!r}") from None
            continue
        fields = [f.strip() for f in stripped.split(",")]
        try:
            vals = [float(f) for f in fields]
        except ValueError:
            raise ParseError(lineno, f"non-numeric field in {stripped!r}") from None
        try:
            if section == "buses":
                _expect(lineno, vals, 2)
                buses.append(Bus(int(vals[0]), vals[1]))
            elif section == "lines":
                _expect(lineno, vals, 4)
                lines.append(Line(int(vals[0]), int(vals[1]), vals[2], vals[3]))
            elif section == "generators":
                _expect(lineno, vals, 12)
                gens.append(Generator(int(vals[0]), vals[1], vals[2], vals[3],
                                      vals[4], int(vals[5]), int(vals[6]),
                                      vals[7], vals[8], vals[9], vals[10], vals[11]))
            elif section == "wind":
                _expect(lineno, vals, 5)
                wind.append(WindUnit(int(vals[0]), (vals[1], vals[2]),
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
        ref_bus=int(config["ref_bus"]),
        base_mva=float(config.get("base_mva", 100.0)),
        name=name,
    )


def _expect(lineno: int, vals: list, n: int):
    if len(vals) != n:
        raise ParseError(lineno, f"expected {n} fields, got {len(vals)}")


def bundled_case_text(name: str) -> str:
    """Raw text of a bundled fixture case (ring3, sixbus, grid24)."""
    return (resources.files("ucsm.cases") / f"{name}.case").read_text()


def load_bundled_case(name: str) -> SystemCase:
    return parse_case(bundled_case_text(name), name=name)
