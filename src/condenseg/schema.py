"""The program's files and JSON: the one writer and two readers of its files, and
one parser, line writer and checker for the JSON it reads (train configs,
checkpoint and volume headers, dataset manifests and meta files, geometry files).
A spec maps each field to a (predicate, wording) rule; the predicate gets ABSENT
for a field the object lacks, so a rule that accepts ABSENT makes it optional."""

import contextlib
import json
import os
from dataclasses import fields, is_dataclass

import numpy as np

ABSENT = object()


class ConfigError(ValueError):
    """Invalid configuration; message lists every violation."""


def parse(text, error, where):
    """The JSON value in `text`; `error` saying `where` is not valid JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):  # bad UTF-8 or nesting too deep too
        raise error("%s is not valid JSON" % where) from None


def write_file(path, chunks):
    """Write the bytes objects `chunks` yields, in order, to the file `path`, whole
    or not at all: they go to `<path>.<pid>.tmp` beside it, which replaces `path`
    once all are written and is removed if anything fails first.  Not synced, so
    a power loss may still lose the file."""
    tmp = "%s.%d.tmp" % (os.fspath(path), os.getpid())
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the temporary file may never have been made
            os.remove(tmp)
        raise


def read_json(path, error):
    """The JSON value in the file `path`; `error` naming the file if it is not valid JSON."""
    with open(path, "rb") as f:
        return parse(f.read(), error, os.fspath(path))


def read_record(path, error, label):
    """(the JSON object on the first line of the file `path`, the bytes after it as
    a writable uint8 array); `error` saying `label` is not valid JSON or not a JSON
    object.  The bytes are read with one `readinto` into one fresh, aligned array,
    sized by the file's length, so a caller may view them as any dtype without a
    copy."""
    with open(path, "rb") as f:
        line = f.readline()
        header = parse(line, error, label)
        rest = np.empty(max(os.fstat(f.fileno()).st_size - len(line), 0), dtype=np.uint8)
        rest = rest[:f.readinto(rest)]
        tail = f.read()  # what the size missed: a pipe, or a file still growing
    if tail:
        rest = np.concatenate([rest, np.frombuffer(tail, dtype=np.uint8)])
    if not isinstance(header, dict):
        raise error("%s is not a JSON object" % label)
    return header, rest


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
        raise error("%s has unknown fields: %s" % (where, ", ".join(sorted(obj.keys() - spec.keys()))))
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
