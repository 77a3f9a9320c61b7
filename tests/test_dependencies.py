"""The package runs on numpy alone: scipy is a test-only dependency, and
importing it loads no ``numpy.random``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_imports_no_scipy():
    code = ("import sys\n"
            "import poissonpert, poissonpert.levy, poissonpert.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_package_imports_no_numpy_random():
    # numpy.random loads on the first generator, not at import: an import-time
    # load put about 10 ms into every benchmark workload's setup_s
    code = ("import sys\n"
            "import poissonpert, poissonpert.levy, poissonpert.cli\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.random'"
            " or m.startswith('numpy.random.')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
