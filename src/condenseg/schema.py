"""One checker for the JSON objects the program reads: train configs,
checkpoint and volume headers, dataset manifests and meta files, and
geometry files.  A spec maps each field to a (predicate, wording) rule;
the predicate gets ABSENT for a field the object lacks, so a rule that
accepts ABSENT makes its field optional."""

from dataclasses import fields

ABSENT = object()


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true is no int


NUMBER = (lambda v: is_int(v) or isinstance(v, float), "a number")
PRESENT = (lambda v: v is not ABSENT, "present")


def optional(rule):
    return (lambda v: v is ABSENT or rule[0](v)), rule[1]


def config_spec(cls):
    """A config dataclass's fields, each optional: int, float and tuple
    fields hold their type, and a nested config is left to its own check."""
    rules = {int: (is_int, "an int"), float: NUMBER,
             tuple: (lambda v: isinstance(v, (list, tuple)) and all(map(is_int, v)),
                     "a list of ints")}
    return {f.name: optional(rules.get(f.type, PRESENT)) for f in fields(cls)}


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
                        "%s field of the wrong type: %s is %r, not %s" % (where, key, value, want))
    return obj
