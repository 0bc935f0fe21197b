"""The package's public surface: __all__ and the names it binds agree, and
importing the package loads none of its modules."""

import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import catoptrix


def test_all_lists_exactly_the_public_names():
    assert len(set(catoptrix.__all__)) == len(catoptrix.__all__)
    missing = [name for name in catoptrix.__all__ if not hasattr(catoptrix, name)]
    assert missing == []
    public = {
        name
        for name, value in vars(catoptrix).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(catoptrix.__all__)


def test_import_loads_no_module_and_names_resolve_on_use():
    # a fresh interpreter: this one has loaded every module already
    code = textwrap.dedent(
        """
        import sys
        import catoptrix
        assert [m for m in sys.modules if m.startswith("catoptrix.")] == []
        assert set(catoptrix.__all__) <= set(dir(catoptrix))
        namespace = {}
        exec("from catoptrix import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(catoptrix.__all__)
        assert not hasattr(catoptrix, "no_such_name")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
