"""The one schema of configs, checkpoint headers and manifests: the field
annotations of their dataclasses.

`check(self, section)` in a `__post_init__` coerces each field to its
annotation, in place: a JSON list to a tuple of the annotated length (or a
list), a JSON object to the nested dataclass, the key "25" of a
`dict[int, ...]` to 25. An int is never a bool, a float is a finite int or
float, `X | None` allows null, `Literal[...]` lists the choices and
`Annotated[T, (test, kind)]` bounds the value. A bad value raises
ValidationError("<section> <field> must be <kind>, got <value!r>"); a
bound on a `tuple[X, ...]` keeps the error of a value that is not a list
of X (its item names itself) and reports <kind> only when the test fails.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import types
import typing
from typing import Annotated, Literal

__all__ = ["ValidationError", "check", "build", "PositiveInt", "Positive"]


class ValidationError(ValueError):
    """Bad inputs or contract violations; maps to CLI exit code 1."""


class _Bad(Exception):
    """A value that does not fit its annotation; the text follows the field name."""


PositiveInt = Annotated[int, (lambda v: v > 0, "a positive int")]
Positive = Annotated[float, (lambda v: v > 0, "a positive number")]


def check(obj, section: str) -> None:
    """Coerce every field of the dataclass `obj` to its annotation, in place."""
    for name, convert in _fields(type(obj)):
        try:
            object.__setattr__(obj, name, convert(getattr(obj, name)))
        except _Bad as bad:
            raise ValidationError(f"{section} {name} {bad}") from None


def build(cls, data, section: str):
    """`cls(**data)`, where `data` must be an object with every required
    field of `cls` and no other key."""
    try:
        return _converter(cls)(data)
    except _Bad as bad:
        raise ValidationError(f"{section} {bad}") from None


@functools.cache
def _fields(cls) -> list:
    hints = typing.get_type_hints(cls, include_extras=True)
    return [(f.name, _converter(hints[f.name])) for f in dataclasses.fields(cls)]


def _expect(kind: str, test, cast=lambda v: v):
    def convert(v):
        if not test(v):
            raise _Bad(f"must be {kind}, got {v!r}")
        return cast(v)
    return convert


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_list(v) -> bool:
    return isinstance(v, (list, tuple))


_SCALARS = {
    int: _expect("an int", _is_int),
    float: _expect("a finite number", lambda v: (_is_int(v) or isinstance(v, float))
                   and abs(v) <= sys.float_info.max, float),
    str: _expect("a string", lambda v: isinstance(v, str)),
    bool: _expect("true or false", lambda v: isinstance(v, bool)),
    dict: _expect("a JSON object", lambda v: isinstance(v, dict)),
}


@functools.cache
def _converter(hint):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        inner, (test, kind) = _converter(args[0]), hint.__metadata__[0]
        # the bound names the whole value, but a bad list item names itself
        own_errors = typing.get_args(args[0])[-1:] == (Ellipsis,)

        def bounded(v):
            try:
                if test(out := inner(v)):
                    return out
            except _Bad:
                if own_errors:
                    raise
            raise _Bad(f"must be {kind}, got {v!r}")
        return bounded
    if origin is Literal:
        return _expect("one of " + ", ".join(map(repr, args)),
                       lambda v: any(v == c and type(v) is type(c) for c in args))
    if origin in (typing.Union, types.UnionType):  # X | None
        (inner,) = [_converter(a) for a in args if a is not type(None)]
        return lambda v: None if v is None else inner(v)
    if origin is list or origin is tuple and args[-1] is Ellipsis:
        item, seq = _converter(args[0]), _expect("a list", _is_list)
        return lambda v: origin(map(item, seq(v)))
    if origin is tuple:
        items = [_converter(a) for a in args]
        fixed = _expect(f"a list of {len(args)} items",
                        lambda v: _is_list(v) and len(v) == len(args))
        return lambda v: tuple(f(x) for f, x in zip(items, fixed(v)))
    if origin is dict:  # JSON object keys are strings: "25" stands for 25
        key, value = map(_converter, args)
        ints = args[0] is int
        return lambda v: {key(int(k) if ints and isinstance(k, str) and k.isdecimal() else k):
                          value(x) for k, x in _SCALARS[dict](v).items()}
    if dataclasses.is_dataclass(hint):
        fields = dataclasses.fields(hint)
        names = {f.name for f in fields}
        required = {f.name for f in fields
                    if f.default is f.default_factory is dataclasses.MISSING}

        def record(v):
            if isinstance(v, hint):
                return v
            keys = set(_SCALARS[dict](v))
            for text, bad in (("has unknown key", keys - names), ("lacks key", required - keys)):
                if bad:
                    raise _Bad(f"{text} {min(bad, key=repr)!r}")
            return hint(**v)
        return record
    return _SCALARS[hint]
