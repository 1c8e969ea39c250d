"""Exception types shared across the package, and the number and field
readers every input parser uses."""

import math


def finite_float(text: str) -> float:
    """float(text) for a finite number; ValueError for nan, inf or text
    float() refuses, which the input parsers report as a ParseError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def field_reader(fields: dict[str, tuple[int, str]]):
    """read(key, conv, default="") over ``key -> (1-based line, text)``
    fields: conv of the key's text, or of ``default`` when it is missing.
    A ValueError from conv becomes a ParseError at the key's line (0 when
    the key is missing)."""
    def read(key, conv, default=""):
        lineno, raw = fields.get(key, (0, default))
        try:
            return conv(raw)
        except ValueError:
            raise ParseError(lineno, f"bad value for {key}: {raw!r}") from None
    return read


class UcsmError(Exception):
    """Base class for all package errors."""


class SingularMatrix(UcsmError):
    """A pivot underflowed the singularity threshold during factorization."""


class DimensionMismatch(UcsmError):
    """Array shapes of a problem or query are mutually inconsistent."""


class ParseError(UcsmError):
    """Input file could not be parsed.

    Carries the 1-based line number and a human-readable reason.
    """

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class ValidationError(UcsmError):
    """Parsed case violates a structural invariant."""


class BalancingFailed(UcsmError):
    """Dataset class balancing budget exhausted."""

    def __init__(self, attempts: int, achieved_ratio: float):
        self.attempts = attempts
        self.achieved_ratio = achieved_ratio
        super().__init__(
            f"class balancing failed after {attempts} attempts "
            f"(ratio {achieved_ratio:.3f})"
        )


class SingleClassData(UcsmError):
    """Training data contains only one class label."""


class FeatureMismatch(UcsmError):
    """Hyperplane feature layout does not match the system case."""


class TooLarge(UcsmError):
    """Instance exceeds the brute-force enumeration budget."""
