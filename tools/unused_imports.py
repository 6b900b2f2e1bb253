"""Fail on a module-level import that its module never uses.

    python3 tools/unused_imports.py src tests tools

Walks each given directory for `.py` files.  A name that an `import` or
`from ... import` statement binds at module level (in the module body or in
a module-level `if`, `try` or `with` block) is unused when the module never
loads it: no bare name, no attribute base, and no entry of a literal
`__all__`.  `from __future__` imports are exempt, and so is a statement
whose first line carries `# noqa: F401`, the mark of a deliberate
re-export such as those of a package's `__init__.py`.  Prints one
`<path>:<line>: '<name>' imported but unused` per finding and exits 1 if
there is any.  Standard library only.
"""

import ast
import os
import sys

_BLOCKS = (ast.If, ast.Try, ast.With)


def _module_imports(body, lines):
    """(line, bound name) of every import statement at module level but
    those marked `# noqa: F401`."""
    for node in body:
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name
        elif isinstance(node, _BLOCKS):
            for field in ("body", "orelse", "finalbody"):
                yield from _module_imports(getattr(node, field, []), lines)
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body, lines)


def _loaded_names(tree):
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                 for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return names


def unused_imports(path):
    """[(line, name)] of the module-level imports that the file `path` never uses."""
    with open(path, "rb") as f:
        source = f.read()
    tree = ast.parse(source, filename=path)
    used = _loaded_names(tree)
    lines = source.decode("utf-8").splitlines()
    return [(line, name) for line, name in _module_imports(tree.body, lines)
            if name not in used]


def main(roots):
    found = 0
    for root in roots:
        for folder, dirs, files in os.walk(root):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    for line, unused in unused_imports(path):
                        print("%s:%d: %r imported but unused" % (path, line, unused))
                        found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
