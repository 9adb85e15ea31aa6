"""One typed JSON codec for the package's config dataclasses: every config
it stores or reads goes through here, so all readers apply the same type
rules and report a wrong value as a FormatError naming the file and key."""

from __future__ import annotations

import math
from dataclasses import asdict, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .errors import FormatError

_EXPECTED = {int: "an integer", float: "a number", str: "a string",
             tuple: "a list"}


def config_to_json(cfg) -> dict:
    """The dataclass as a dict in field order, nested ones included; tuples
    stay tuples, which ``json.dumps`` writes as lists."""
    return asdict(cfg)


def config_from_json(cls, doc, where: str, defaults=None, ignore=()):
    """Decode ``doc`` into the dataclass ``cls``.

    Each value is checked against its field's type: ``int`` takes JSON
    integers only (not a bool or a float), ``float`` an integer or a finite
    float (not a bool, NaN or an infinity), ``str`` a string, ``tuple[...]``
    a list (or a tuple, for in-memory dicts), and a nested dataclass is
    decoded the same way. A key that is not a field is an error unless it
    is in ``ignore`` (keys the caller reads itself), and so is a missing
    one unless ``defaults`` (an instance of ``cls``) supplies it. The
    ValueError of the class's own checks becomes a FormatError too; every
    message begins with ``where``.
    """
    return _decode(cls, doc, where, "", defaults, ignore)


def json_value(tp, value, where: str, key: str):
    """``value`` checked against ``int``, ``float``, ``str`` or a
    ``tuple[...]`` of them by the rules of :func:`config_from_json`, with
    lists turned into tuples; ``key`` names it in the message."""
    origin = get_origin(tp) or tp
    if not (type(value) in (int, float) if origin is float
            else isinstance(value, (list, tuple)) if origin is tuple
            else type(value) is origin):
        raise FormatError(f"{where}: {key!r} must be {_EXPECTED[origin]}, "
                          f"got {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise FormatError(f"{where}: {key!r} must be finite, got {value!r}")
    if origin is not tuple:
        return value
    args = get_args(tp)
    if args[-1] is Ellipsis:
        args = args[:1] * len(value)
    elif len(args) != len(value):
        raise FormatError(f"{where}: {key!r} must be a list of {len(args)}, "
                          f"got {value!r}")
    return tuple(json_value(t, v, where, f"{key}[{i}]")
                 for i, (t, v) in enumerate(zip(args, value)))


def _decode(cls, doc, where: str, prefix: str, defaults, ignore=()):
    if not isinstance(doc, dict):
        what = f"{prefix[:-1]!r} is " if prefix else ""
        raise FormatError(f"{where}: {what}not a JSON object")
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls) if f.init]
    unknown = sorted(set(doc) - set(names) - set(ignore))
    if unknown:
        raise FormatError(f"{where}: unknown keys "
                          f"{[prefix + k for k in unknown]}")
    kwargs = {}
    for name in names:
        if name in doc:
            tp = hints[name]
            kwargs[name] = (_decode(tp, doc[name], where, f"{prefix}{name}.",
                                    getattr(defaults, name, None))
                            if is_dataclass(tp) else
                            json_value(tp, doc[name], where, prefix + name))
        elif defaults is not None:
            kwargs[name] = getattr(defaults, name)
        else:
            raise FormatError(f"{where}: no key {prefix + name!r}")
    try:
        return cls(**kwargs)
    except (OverflowError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from None
