"""What importing one module of the package loads, each in a fresh
interpreter: the package root re-exports nothing, so only the counter
brings in numpy, and the counter does not bring in the exact route."""

import os
import subprocess
import sys
from pathlib import Path

import tangency

SRC = str(Path(tangency.__file__).resolve().parent.parent)

NUMPY_FREE = ("schubert", "flag", "enumerative", "dpoly", "fields", "forms", "deformation",
              "fermat")


def _loaded_by(module: str) -> set[str]:
    # sys.modules of a fresh interpreter after `import tangency.<module>`,
    # the package taken from where this suite imports it
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    code = f"import sys, tangency.{module}; print(' '.join(sys.modules))"
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120, check=True)
    return set(run.stdout.split())


def test_only_the_counter_imports_numpy_and_it_imports_no_exact_route():
    for module in NUMPY_FREE:
        loaded = _loaded_by(module)
        assert f"tangency.{module}" in loaded
        assert "numpy" not in loaded, module
    loaded = _loaded_by("counting")
    assert "numpy" in loaded
    assert "tangency.deformation" not in loaded
