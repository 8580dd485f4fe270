"""Exception types shared across the package, and the loader and writer of config specs."""

import dataclasses
import functools
import math
import numbers
import reprlib
import types
import typing


class SeslabError(Exception):
    """Base class for all seslab errors."""


class ShapeError(SeslabError, ValueError):
    """An array argument has the wrong rank, extent, or pairing, or a value it
    may not hold (a NaN pixel, a non-finite coordinate, a basis order)."""


class FormatError(SeslabError, ValueError):
    """A file is malformed, truncated, or inconsistent with its header."""


class DegenerateGeometryError(SeslabError, ValueError):
    """A camera/plane/motion combination admits no valid mapping."""


class ConfigError(SeslabError, ValueError):
    """An experiment or CLI configuration is invalid."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer: an ``Integral`` that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_real(value) -> float:
    """A real ``value`` as a float (+-inf past the float range); nan for a bool or a non-real."""
    if not _is_real(value):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def load(cls, data, path: str = ""):
    """Build the dataclass ``cls`` from the JSON object ``data``.

    Each key must name a field, and every field without a default must be
    given. Values are converted by the field annotations as in
    :func:`check_fields`; a field whose type is a dataclass takes a nested
    object, loaded recursively. ``path`` names ``data`` in error messages,
    which name each field by its path, e.g. ``stack.layers[1].k``, and
    abbreviate long values such as a 400-digit integer.
    """
    name = path or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object, got {reprlib.repr(data)}")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown, key=str)}")
    missing = [
        f.name
        for f in fields
        if f.name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"{name} is missing {', '.join(missing)}")
    hints = _hints(cls)
    return cls(**{key: _convert(hints[key], value, _join(path, key)) for key, value in data.items()})


def dump(obj):
    """The JSON value of ``obj``, the inverse of :func:`load`.

    A dataclass becomes an object keyed by field name, with nested
    dataclasses dumped recursively, and a tuple becomes a list. Any other
    value is returned as it is.
    """
    if dataclasses.is_dataclass(obj):
        return {f.name: dump(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [dump(item) for item in obj]
    return obj


def check_fields(obj) -> None:
    """Check every field of the frozen dataclass ``obj`` against its annotation.

    ``int`` takes integers, ``float`` any real number that converts to a
    finite float (bools are neither), ``str`` strings, ``X | None`` None or
    an ``X``, ``tuple[T, ...]`` a list or tuple of ``T``, and a dataclass an
    instance or a JSON object. Converted values replace the given ones, so
    real fields hold floats and sequence fields tuples. Raises ConfigError.
    """
    hints = _hints(type(obj))
    for f in dataclasses.fields(obj):
        value = _convert(hints[f.name], getattr(obj, f.name), f"{type(obj).__name__}.{f.name}")
        object.__setattr__(obj, f.name, value)


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _convert(tp, value, path: str):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        if value is None:
            return None
        (tp,) = [arg for arg in args if arg is not type(None)]
        origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {reprlib.repr(value)}")
        return tuple(_convert(args[0], item, f"{path}[{i}]") for i, item in enumerate(value))
    if dataclasses.is_dataclass(tp):
        return value if isinstance(value, tp) else load(tp, value, path)
    if tp is int:
        if not is_integer(value):
            raise ConfigError(f"{path} must be an integer, got {reprlib.repr(value)}")
        return int(value)
    if tp is float:
        if not _is_real(value):
            raise ConfigError(f"{path} must be a number, got {reprlib.repr(value)}")
        real = as_real(value)
        if not math.isfinite(real):
            raise ConfigError(f"{path} must be a finite number, got {reprlib.repr(value)}")
        return real
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string, got {reprlib.repr(value)}")
        return value
    raise TypeError(f"{path}: no conversion for the annotation {tp!r}")
