"""The one kind check and the one JSON reader behind every input the package
reads: config objects, world files, corpora and model files.

A kind is int (an integer that is not a bool), float (any number that is not
a bool), bool, str, dict, "strings" (a list of strings), "links" (a list of
[url, anchor] string pairs), "tokens" (a non-empty list of single tokens) or
"finite" (a finite number). Each check raises the caller's error class, with a
message that starts with where the value came from: file, line and field.
"""
from __future__ import annotations

import json
import math
from dataclasses import fields

from .text import tokenize

KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
              dict: "an object", "strings": "a list of strings",
              "links": "a list of [url, anchor] string pairs", "finite": "a finite number",
              "tokens": "a non-empty list of single tokens"}


def is_kind(value, kind):
    """Whether the value has the kind."""
    if kind == "strings":
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    if kind == "links":
        return isinstance(value, list) and all(is_kind(v, "strings") and len(v) == 2
                                               for v in value)
    if kind == "tokens":  # only a single token can match one
        return is_kind(value, "strings") and len(value) > 0 and all(
            tokenize(v) == [v] for v in value)
    if kind == "finite":
        try:
            return is_kind(value, float) and math.isfinite(value)
        except OverflowError:  # an integer too large for a float
            return False
    # Python counts a bool as an int, so only the bool kind takes one.
    return (isinstance(value, (int, float) if kind is float else kind)
            and (kind is bool or not isinstance(value, bool)))


def check(value, kind, where, error):
    """The value, if it has the kind; else raise error naming `where`."""
    if not is_kind(value, kind):
        raise error(f"{where} must be {KIND_NAMES[kind]}, got {value!r:.60}")
    return value


def require(record, name, kind, where, error):
    """record[name], checked to have the kind; `where` prefixes the name."""
    if name not in record:
        raise error(f"{where}{name} is missing")
    return check(record[name], kind, where + name, error)


def check_fields(obj, error, prefix="", **kinds):
    """Check each field of the dataclass obj to have the kind of its default,
    or the kind given in kinds (None skips the field); a field whose default
    is None may also hold None."""
    for f in fields(obj):
        kind = kinds.get(f.name, type(f.default))
        value = getattr(obj, f.name)
        if kind is not None and not (value is None and f.default is None):
            check(value, kind, prefix + f.name, error)


def parse_json(text, where, error):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where} is not JSON: {exc}") from None


def json_lines(path, error):
    """(1-based line number, value) for each non-blank line of a JSON-lines
    file; a line that is not JSON raises error naming the file and the line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, parse_json(line, f"{path} line {lineno}", error)
