"""What a value of a kind is, and how a JSON block is read.

A kind is an annotation: a dataclass states each field's kind once and
checks it at construction (_check_kinds), and a JSON block is read by a table
of its keys (_read).  Both refuse a value by the one message of _kind_error,
as the error type of the caller's domain.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, fields
from functools import cache
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np


class ExperimentConfigError(ValueError):
    """The experiment configuration is invalid."""


def _is_numbers(value, ndim: int) -> bool:
    """Whether `value` is a number (ndim 0: a Python or numpy int or float,
    never a bool, and never a Python int past the largest float), or a
    rectangular list, tuple or numeric array of them with ndim axes."""
    if isinstance(value, np.ndarray):
        return value.ndim == ndim and value.dtype.kind in "iuf"
    if ndim == 0:
        return _is_number_type(type(value)) and _in_float_range(value)
    if not isinstance(value, (list, tuple)):
        return False
    if ndim == 1:       # each type among the entries, once; Python ints one by one
        types = set(map(type, value))
        return all(map(_is_number_type, types)) and (
            not any(issubclass(t, int) for t in types) or all(map(_in_float_range, value)))
    return all(_is_numbers(v, ndim - 1) for v in value) and len(set(map(np.shape, value))) < 2


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float, np.integer, np.floating)) and t is not bool


def _in_float_range(number) -> bool:
    """False for a Python int past the largest float (float() refuses it)."""
    return not isinstance(number, int) or abs(number) <= sys.float_info.max


def _is(value, kind) -> bool:
    """Whether `value` is of `kind`, an annotation.  A float is a finite
    Python or numpy int or float, an int one of the ints, and a bool is
    neither; a tuple[...] is a list, tuple or 1-d array of its entries; an
    np.ndarray is rectangular finite numbers with one or two axes."""
    if kind is float:
        return _is_numbers(value, 0) and math.isfinite(value)
    if kind is int:
        return _is_numbers(value, 0) and isinstance(value, (int, np.integer))
    if kind is np.ndarray:
        return (_is_numbers(value, 1) or _is_numbers(value, 2)) and bool(
            np.isfinite(np.asarray(value, dtype=float)).all())
    origin, args = get_origin(kind), get_args(kind)
    if origin is tuple:                 # tuple[X, ...] holds any number of X
        return (isinstance(value, (list, tuple)) or np.ndim(value) == 1) and (
            all(_is(v, args[0]) for v in value) if args[1:] == (...,)
            else len(value) == len(args) and all(map(_is, value, args)))
    if origin is UnionType:
        return any(_is(value, a) for a in args)
    return isinstance(value, kind)


def _kind_error(error, what: str, key: str, kind, value) -> ValueError:
    """The refusal of `value` for `key` of `what`, as `error`: it must be of
    `kind` (an annotation, or one as written), finite when it holds numbers."""
    numbers = any(_is_numbers(value, ndim) for ndim in (0, 1, 2))
    finite = "finite " if numbers and not np.isfinite(np.asarray(value, dtype=float)).all() else ""
    name = kind.__name__ if isinstance(kind, type) else kind
    return error(f"{what}: {key} must be {finite}{name}, got {value!r}")


_annotations = cache(get_type_hints)      # of a dataclass, evaluated once


def _check_kinds(obj, error=ExperimentConfigError) -> None:
    """Refuse an init field of dataclass instance `obj` that is not of its
    annotated kind (see _is): an `error` naming the class and the field."""
    kinds = _annotations(type(obj))
    for f in fields(obj):
        if f.init and not _is(value := getattr(obj, f.name), kinds[f.name]):
            raise _kind_error(error, type(obj).__name__, f.name, f.type, value)


def _fields_table(cls) -> dict[str, tuple[None, Any]]:
    """The _read table of a block that mirrors dataclass `cls`: each init
    field's default; the constructor checks the kinds."""
    return {f.name: (None, f.default) for f in fields(cls) if f.init}


def _read(block, what: str, table: dict, error=ExperimentConfigError) -> dict[str, Any]:
    """Each key of the JSON object `block` by `table`, key -> (kind, default):
    absent or null, its default (MISSING: required); else a value of its kind,
    an annotation, never cast (kind None: left to the code that uses it).  An
    unknown key, a missing one or a value of another kind is an `error`
    naming `what` and the key."""
    if type(block) is not dict:
        raise error(f"{what} must be a JSON object, got {block!r}")
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise error(f"{what}: unknown key(s) {unknown}")
    values = {}
    for key, (kind, default) in table.items():
        value = block.get(key)
        if value is None:
            if default is MISSING:
                raise error(f"{what} is missing required key {key!r}")
            value = default
        elif kind is not None and not _is(value, kind):
            raise _kind_error(error, what, key, kind, value)
        values[key] = value
    return values
