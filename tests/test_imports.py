"""What importing one module of the package loads, each in a fresh
interpreter: the package root re-exports nothing, so only the counter
brings in numpy, the counter does not bring in the exact route, and the
symbolic route reads its expressions without the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import tangency

SRC = str(Path(tangency.__file__).resolve().parent.parent)

NUMPY_FREE = ("schubert", "flag", "enumerative", "dpoly", "fields", "forms", "deformation",
              "fermat")


def _loaded_by(module: str, then: str = "pass") -> set[str]:
    # sys.modules of a fresh interpreter after `import tangency.<module>`
    # and the statement `then`, the package taken from where this suite
    # imports it
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    code = f"import sys, tangency.{module}; {then}; print(' '.join(sys.modules))"
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


def test_the_symbolic_route_reads_an_expression_without_the_cli_or_numpy():
    loaded = _loaded_by("flag", "assert tangency.flag.parse_expression('s[1,1]*s[1]^6', 5)"
                                ".terms[(0, 0)].text() == '5*s[4,4]'")
    assert not loaded & {"numpy", "argparse", "tangency.counting", "tangency.cli"}, loaded
