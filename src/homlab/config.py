"""Flat dotted-key study configuration files.

One `key = value` pair per line; `#` starts a comment.  Values are typed
by shape: integers, floats, booleans (true/false), bare strings, and
comma-separated lists of those.  Keys are dotted lowercase identifiers
such as `schedule.eps`.
"""

import math
import re

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
_MISSING = object()


class ConfigError(Exception):
    """Bad study configuration; the message names the line or key."""


def _parse_scalar(token):
    t = token.strip()
    low = t.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def _finite_float(value):
    """A config number as a float; nan and inf are refused, since no
    study reads them as anything but a mistake."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    out = float(value)  # OverflowError for an int beyond the float range
    if not math.isfinite(out):
        raise ValueError
    return out


def parse_config(text, source):
    """Parse config text into an ordered {key: typed value} dict."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"{source}:{lineno}: malformed key {key!r}")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not val:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        if "," in val:
            tokens = [tok.strip() for tok in val.split(",")]
            if not all(tokens):
                raise ConfigError(
                    f"{source}:{lineno}: empty list entry for {key!r}")
            entries[key] = tuple(_parse_scalar(tok) for tok in tokens)
        else:
            entries[key] = _parse_scalar(val)
    return entries


def format_value(value):
    """Render a typed value back to config syntax."""
    if isinstance(value, tuple):
        return ", ".join(format_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


class StudyConfig:
    """Typed access to parsed config entries, tracking which were read."""

    def __init__(self, entries, source="<config>"):
        self.entries = dict(entries)
        self.source = source
        self._seen = set()

    @classmethod
    def from_text(cls, text, source):
        return cls(parse_config(text, source), source)

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text, str(path))

    def get(self, key, default=_MISSING):
        if key in self.entries:
            self._seen.add(key)
            return self.entries[key]
        if default is _MISSING:
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        return default

    def _typed(self, key, default, caster, typename):
        val = self.get(key, default)
        if val is default and key not in self.entries:
            return default
        try:
            return caster(val)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(
                f"{self.source}: key {key!r} needs a {typename}, "
                f"got {format_value(val) if isinstance(val, tuple) else val!r}"
            ) from None

    def get_str(self, key, default=_MISSING):
        def cast(v):
            if isinstance(v, (tuple, bool)):
                raise TypeError
            return str(v)
        return self._typed(key, default, cast, "string")

    def get_int(self, key, default=_MISSING):
        def cast(v):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError
            return v
        return self._typed(key, default, cast, "integer")

    def get_float(self, key, default=_MISSING):
        return self._typed(key, default, _finite_float, "finite number")

    def get_floats(self, key, default=_MISSING):
        def cast(v):
            items = v if isinstance(v, tuple) else (v,)
            return tuple(_finite_float(item) for item in items)
        return self._typed(key, default, cast, "finite number list")

    def unused_keys(self):
        return tuple(k for k in self.entries if k not in self._seen)

    def check_all_used(self):
        unused = self.unused_keys()
        if unused:
            raise ConfigError(
                f"{self.source}: unrecognized keys: {', '.join(unused)}"
            )

    def echo(self):
        """(key, rendered value) pairs in file order, for CSV headers."""
        return [(k, format_value(v)) for k, v in self.entries.items()]
