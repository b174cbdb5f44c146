"""The package declares no runtime dependencies; keep it that way.

``pyproject.toml`` lists ``dependencies = []``, so everything the CLI
imports must come from the standard library.  The import runs in a fresh
interpreter: modules already loaded by the test session (pytest,
hypothesis, ...) must not mask a missing declaration.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Only modules the import itself adds are checked: interpreter start-up
# may load site-installed helpers (``.pth`` hooks) before any repro code.
_PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import repro.cli\n"
    "print('\\n'.join(sorted({name.split('.')[0] for name in sys.modules\n"
    "                         if name not in before})))\n"
)


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names needs Python 3.10")
def test_cli_import_loads_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    result = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                            capture_output=True, text=True, check=True)
    loaded = set(result.stdout.split())
    assert "repro" in loaded
    undeclared = sorted(name for name in loaded - {"repro"}
                        if name not in sys.stdlib_module_names)
    assert undeclared == [], (
        f"import repro.cli loads non-stdlib modules {undeclared}; "
        f"declare them in pyproject.toml or drop them")
