"""Exception types shared across the package, and the type checks of config specs."""

import numbers


class SeslabError(Exception):
    """Base class for all seslab errors."""


class ShapeError(SeslabError, ValueError):
    """An array argument has the wrong rank, extent, or pairing."""


class FormatError(SeslabError, ValueError):
    """A file is malformed, truncated, or inconsistent with its header."""


class DegenerateGeometryError(SeslabError, ValueError):
    """A camera/plane/motion combination admits no valid mapping."""


class ConfigError(SeslabError, ValueError):
    """An experiment or CLI configuration is invalid."""


def require_ints(owner: str, **fields) -> None:
    """Raise ConfigError unless every field is an integer (bools are not)."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{owner} {name} must be an integer, got {value!r}")


def require_reals(owner: str, **fields) -> None:
    """Raise ConfigError unless every field is a real number (bools are not)."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{owner} {name} must be a number, got {value!r}")
