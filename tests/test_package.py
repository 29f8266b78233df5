"""Package-level contracts: what importing rsstego loads."""

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
