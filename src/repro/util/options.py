"""Command-line options derived from config dataclasses.

A field declares its option once, in its ``field(metadata=...)``
(:mod:`repro.config` lists the keys); no command spells a field's flag,
type, choices, default or help a second time.
"""

from __future__ import annotations

import argparse
from dataclasses import MISSING, fields

from repro.util.errors import ConfigurationError


def _argparse_type(parse):
    def convert(text: str):
        try:
            return parse(text)
        except ConfigurationError as exc:  # keep its message, not "invalid value"
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def add_fields(parser, cls, *, only=None, skip=(), defaults=None) -> None:
    """One option per field of ``cls``.  ``only``/``skip`` select by field
    name; ``defaults`` are this command's where they differ from the
    dataclass's (a string is parsed like the flag's value)."""
    for f in fields(cls):
        meta = f.metadata
        flag = meta.get("flag", "--" + f.name.replace("_", "-"))
        if flag is None or f.name in skip or (only and f.name not in only):
            continue
        kwargs = {"dest": meta.get("dest", f.name), "help": meta["help"]}
        if isinstance(f.default, bool):
            parser.add_argument(flag, action="store_true", **kwargs)
            continue
        default = (defaults or {}).get(f.name, f.default)
        if isinstance(default, (int, float, str)):
            kwargs["help"] += " (default: %(default)s)"
        if meta.get("repeat"):
            kwargs["action"], default = "append", []
        if "parse" in meta:
            kwargs["type"] = _argparse_type(meta["parse"])
        elif f.default is not None:
            kwargs["type"] = type(f.default)
        parser.add_argument(flag, default=default, metavar=meta.get("metavar"),
                            choices=meta.get("choices"), **kwargs)


def from_args(cls, args, **overrides):
    """Build ``cls`` from a parsed namespace: every field whose option is
    on it, ``overrides`` on top, the dataclass default for the rest.  A
    :class:`ConfigurationError` from the dataclass is the operator's
    error and is raised as :class:`argparse.ArgumentError`."""
    values = dict(overrides)
    for f in fields(cls):
        dest = f.metadata.get("dest", f.name)
        if f.name in overrides or not hasattr(args, dest):
            continue
        value = getattr(args, dest)
        if isinstance(f.default, bool):
            value = value != f.default  # the flag flips the default
        elif f.metadata.get("repeat"):
            value = tuple(value)
        values[f.name] = value
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise argparse.ArgumentError(None, str(exc)) from exc


def parse_spec(cls, text: str, what: str, aliases=None):
    """Build ``cls`` from ``kind[:key=value,...]``: ``kind`` is its first
    field, and each value is parsed by the type of its field's default
    (``aliases`` maps other spellings of a key to the field name).  A
    pair without ``=``, an unknown key or a bad value raises
    :class:`ConfigurationError` naming ``what``; ``cls`` validates the
    rest."""
    kind, _, rest = text.partition(":")
    types = {f.name: type(f.default) for f in fields(cls)
             if f.default is not MISSING}
    kwargs: dict[str, object] = {}
    for pair in rest.split(",") if rest else ():
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigurationError(
                f"bad {what} parameter {pair!r} (expected key=value)"
            )
        key = (aliases or {}).get(key, key)
        if key not in types:
            raise ConfigurationError(f"unknown {what} parameter {key!r}")
        try:
            kwargs[key] = types[key](value)
        except ValueError:
            raise ConfigurationError(
                f"bad value {value!r} for {what} parameter {key!r}"
            ) from None
    return cls(kind, **kwargs)
