"""The package runs on numpy alone: scipy is a test-only dependency, and
importing it loads neither ``numpy.random`` nor the thread pool's
``concurrent.futures`` and ``logging``.  No module sums an array through a
Python list."""

import ast
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


def test_package_imports_no_thread_pool():
    # run_chunked imports its thread pool where it starts one: at import,
    # concurrent.futures and the logging it loads added about 10 ms to every
    # benchmark workload's setup_s
    code = ("import sys\n"
            "import poissonpert, poissonpert.levy, poissonpert.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0]"
            " in ('concurrent', 'logging')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def _is_fsum(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "fsum"
            or isinstance(node, ast.Name) and node.id == "fsum")


def _is_tolist(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tolist")


def test_no_module_passes_an_array_list_to_fsum():
    # math.fsum over .tolist() walks an array one Python float at a time;
    # configuration._fsum gives the same bits in array passes, and is the one
    # place that falls back to math.fsum on a row's list
    found = []
    for path in sorted((SRC / "poissonpert").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if path.name == "configuration.py" and getattr(top, "name", "") == "_fsum":
                continue
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                direct = _is_fsum(node.func) and any(map(_is_tolist, node.args))
                mapped = (isinstance(node.func, ast.Name) and node.func.id == "map"
                          and len(node.args) == 2 and _is_fsum(node.args[0])
                          and _is_tolist(node.args[1]))
                if direct or mapped:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
