"""One typed JSON codec for the package's config dataclasses: every config
it stores or reads goes through here, so all readers apply the same type
rules and report a wrong value as a FormatError naming the file and key."""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, fields
from typing import get_args, get_origin, get_type_hints

from .errors import FormatError

_EXPECTED = {int: "an integer", float: "a number", str: "a string",
             tuple: "a list"}
_type_hints = functools.cache(get_type_hints)  # a dataclass's field types


def config_to_json(cfg) -> dict:
    """The dataclass as a dict in field order; tuples stay tuples, which
    ``json.dumps`` writes as lists."""
    return asdict(cfg)


def config_from_json(cls, doc, where: str, defaults=None):
    """Decode ``doc`` into the dataclass ``cls``.

    Each value is checked against its field's type: ``int`` takes JSON
    integers only (not a bool or a float), ``float`` an integer or a finite
    float (not a bool, NaN or an infinity), ``str`` a string, ``tuple[...]``
    a list (or a tuple, for in-memory dicts). A key that is not a field is
    an error, and so is a missing one unless ``defaults`` (an instance of
    ``cls``) supplies it. The ValueError of the class's own checks becomes a
    FormatError too; every message begins with ``where``.
    """
    names = [f.name for f in fields(cls) if f.init]
    json_object(doc, where, names)
    hints = _type_hints(cls)
    kwargs = {}
    for name in names:
        if name in doc:
            kwargs[name] = json_value(hints[name], doc[name], where, name)
        elif defaults is not None:
            kwargs[name] = getattr(defaults, name)
        else:
            raise FormatError(f"{where}: no key {name!r}")
    try:
        return cls(**kwargs)
    except (OverflowError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from None


def json_object(doc, where: str, names) -> dict:
    """``doc``, if it is a JSON object whose keys are all in ``names``;
    otherwise a FormatError that begins with ``where``."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: not a JSON object")
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise FormatError(f"{where}: unknown keys {unknown}")
    return doc


def json_value(tp, value, where: str, key: str):
    """``value`` checked against ``int``, ``float``, ``str`` or a
    ``tuple[...]`` of them by the rules of :func:`config_from_json`, with
    lists turned into tuples; ``key`` names it in the message."""
    try:
        return _checker(tp)(value)
    except _Bad as bad:
        key += "".join(f"[{i}]" for i in reversed(bad.path))
        raise FormatError(f"{where}: {key!r} {bad.rest}") from None


class _Bad(Exception):
    """A value that breaks its type: ``rest`` is the message after the key,
    ``path`` the item indices from the value up to the outer one."""

    def __init__(self, rest: str):
        self.rest = rest
        self.path: list[int] = []


@functools.cache
def _checker(tp):
    """The check of a value against ``tp``, resolved once per type, so a
    long tuple costs one closure call per item."""
    origin = get_origin(tp) or tp
    if origin is tuple:
        args = get_args(tp)
        each = _checker(args[0]) if args[-1] is Ellipsis else None
        checks = [_checker(t) for t in args] if each is None else None

        def check_tuple(value):
            if not isinstance(value, (list, tuple)):
                raise _Bad(f"must be {_EXPECTED[tuple]}, got {value!r}")
            if each is None and len(checks) != len(value):
                raise _Bad(f"must be a list of {len(checks)}, got {value!r}")
            items = []
            for i, v in enumerate(value):
                try:
                    items.append(each(v) if each else checks[i](v))
                except _Bad as bad:
                    bad.path.append(i)
                    raise
            return tuple(items)
        return check_tuple
    types = (int, float) if origin is float else (origin,)

    def check_scalar(value):
        if type(value) not in types:
            raise _Bad(f"must be {_EXPECTED[origin]}, got {value!r}")
        if type(value) is float and not math.isfinite(value):
            raise _Bad(f"must be finite, got {value!r}")
        return value
    return check_scalar


