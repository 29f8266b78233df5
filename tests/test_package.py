"""Package-level contracts: what importing rsstego loads and exports."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# rsstego.__main__ is left out: importing it runs the CLI.
_NEW_MODULES = """
import sys
before = set(sys.modules)
import rsstego, rsstego.cli
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(*sorted(new - {"rsstego"} - sys.stdlib_module_names))
"""


def test_import_loads_only_the_standard_library():
    """The library and its CLI are stdlib-only: no third-party module, numpy
    included, is imported at load time."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), path])))
    proc = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_exports():
    """Every name in __all__ resolves, once; every exported exception is a
    ValueError, which is what ``rsstego.cli.main`` catches."""
    import rsstego

    assert len(set(rsstego.__all__)) == len(rsstego.__all__)
    exported = [getattr(rsstego, name) for name in rsstego.__all__]
    errors = [e for e in exported if isinstance(e, type) and issubclass(e, Exception)]
    assert errors
    for error in errors:
        assert issubclass(error, ValueError), error
