"""Process start: what `import cubic7` and the CLI load, and the BLAS default."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import cubic7

# Prints the numpy and cubic7 submodules loaded so far, the BLAS setting and
# the thread count.
_REPORT = (
    "import json, os, sys\n"
    "print(json.dumps([sorted(m for m in sys.modules\n"
    "                         if m == 'numpy' or m.startswith('cubic7.')),\n"
    "                  os.environ.get('OPENBLAS_NUM_THREADS'),\n"
    "                  len(os.listdir('/proc/self/task'))\n"
    "                  if sys.platform == 'linux' else None]))\n"
)


def _fresh(code: str, **env):
    """(modules, OPENBLAS_NUM_THREADS, threads) after code in a new process.

    The variable is cleared first unless env sets it: importing cli in this
    process has set it here."""
    full = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    full.update(env)
    done = subprocess.run([sys.executable, "-c", code + "\n" + _REPORT],
                          capture_output=True, text=True, check=True, env=full)
    return json.loads(done.stdout.splitlines()[-1])


def test_package_import_loads_nothing():
    modules, blas, _ = _fresh("import cubic7")
    assert modules == []
    assert blas is None  # the package leaves its caller's BLAS alone


def test_cli_import_loads_only_forms():
    modules, _, _ = _fresh("from cubic7 import cli")
    assert [m for m in modules if m != "numpy"] == sorted(f"cubic7.{m}" for m in (
        "cli", "errors", "forms", "lattice", "arith", "payload"))


def test_local_subcommand_loads_only_local():
    modules, _, _ = _fresh(
        "import contextlib, io\n"
        "from cubic7 import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['local', '--N', '0']) == 0")
    assert "cubic7.local" in modules
    for unused in ("counting", "density", "expsums", "experiment", "checks",
                   "audits", "oracles"):
        assert f"cubic7.{unused}" not in modules


def test_cli_runs_openblas_on_one_thread():
    _, blas, threads = _fresh("from cubic7 import cli")
    assert blas == "1"
    if sys.platform == "linux":
        assert threads == 1


def test_cli_keeps_a_set_openblas_thread_count():
    _, blas, _ = _fresh("from cubic7 import cli", OPENBLAS_NUM_THREADS="2")
    assert blas == "2"


def test_lazy_exports():
    table = cubic7._MODULE_OF
    assert sorted(table) == cubic7.__all__
    for name in cubic7.__all__:
        module = importlib.import_module(f"cubic7.{table[name]}")
        assert getattr(cubic7, name) is getattr(module, name)
    listed = dir(cubic7)
    assert "__all__" in listed and set(cubic7.__all__) <= set(listed)
    with pytest.raises(AttributeError, match="no_such_name"):
        cubic7.no_such_name


def test_star_import():
    modules, _, _ = _fresh(
        "import cubic7\n"
        "from cubic7 import *\n"
        "assert all(name in globals() for name in cubic7.__all__)")
    assert "cubic7.checks" in modules and "cubic7.experiment" in modules
