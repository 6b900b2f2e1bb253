"""The program's JSON: one parser, one line writer and one checker for the
objects it reads (train configs, checkpoint and volume headers, dataset
manifests and meta files, and geometry files).  A spec maps each field to a
(predicate, wording) rule; the predicate gets ABSENT for a field the object
lacks, so a rule that accepts ABSENT makes its field optional."""

import json
from dataclasses import fields, is_dataclass

ABSENT = object()


class ConfigError(ValueError):
    """Invalid configuration; message lists every violation."""


def parse(text, error, where):
    """The JSON value in `text`; `error` saying `where` is not valid JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):  # bad UTF-8 or nesting too deep too
        raise error("%s is not valid JSON" % where) from None


def dumps(obj):
    """`obj` as one compact, key-sorted JSON line, newline included, in bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true is no int


NUMBER = (lambda v: is_int(v) or isinstance(v, float), "a number")
PRESENT = (lambda v: v is not ABSENT, "present")
_TYPED = {int: (is_int, "an int"), float: NUMBER,
          tuple: (lambda v: isinstance(v, (list, tuple)) and all(map(is_int, v)),
                  "a list of ints")}


def optional(rule):
    return (lambda v: v is ABSENT or rule[0](v)), rule[1]


def check(obj, spec, error, where, closed=False):
    """`obj` if it is a JSON object whose fields pass their `spec` rules, with no
    other keys when `closed`; else `error` led by `where`, naming the field at fault."""
    if not isinstance(obj, dict):
        raise error("%s must be an object, got %r" % (where, obj))
    if closed and not obj.keys() <= spec.keys():
        raise error("unknown %s fields: %s" % (where, ", ".join(sorted(obj.keys() - spec.keys()))))
    for key, (ok, want) in spec.items():
        value = obj.get(key, ABSENT)
        if not ok(value):
            raise error("%s has no %s" % (where, key) if value is ABSENT else
                        "%s: %s is %r, not %s" % (where, key, value, want))
    return obj


def read_config(cls, obj, where="config"):
    """The config dataclass `cls` JSON object `obj` describes, each field optional and
    typed, a nested config read as "<field> config"; else ConfigError naming the field."""
    spec = {f.name: optional(_TYPED.get(f.type, PRESENT)) for f in fields(cls)}
    obj = dict(check(obj, spec, ConfigError, where, closed=True))
    for f in fields(cls):
        if f.name in obj and is_dataclass(f.type):
            obj[f.name] = read_config(f.type, obj[f.name], f.name + " config")
        elif f.name in obj and f.type is tuple:
            obj[f.name] = tuple(obj[f.name])
    return cls(**obj)
