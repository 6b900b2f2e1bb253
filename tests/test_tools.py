"""The repository's checking scripts under tools/."""

import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")

MODULE = '''\
from __future__ import annotations
import os
import sys
import json as js
import collections.abc
from math import pi, tau
from re import (  # noqa: F401
    escape,
)
try:
    import numpy
except ImportError:
    numpy = None
__all__ = ["tau"]


def f():
    import glob
    return sys.argv, collections.abc.Mapping
'''


def test_unused_imports_names_each_unused_module_level_name(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "clean.py").write_text("import os\nprint(os.sep)\n")
    done = subprocess.run([sys.executable, os.path.join(TOOLS, "unused_imports.py"),
                           str(tmp_path)], capture_output=True, text=True)
    path = os.path.join(str(tmp_path), "pkg", "mod.py")
    # numpy is stored to in the except block but never loaded; glob is not
    # at module level
    assert done.stdout.splitlines() == [
        "%s:2: 'os' imported but unused" % path,
        "%s:4: 'js' imported but unused" % path,
        "%s:6: 'pi' imported but unused" % path,
        "%s:11: 'numpy' imported but unused" % path]
    assert done.returncode == 1
