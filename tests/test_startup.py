"""Process start: what `import cubic7` and the CLI load, and the BLAS default."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubic7
from cubic7.forms import form_to_dict

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
    assert modules == sorted(f"cubic7.{m}" for m in (
        "cli", "errors", "forms", "lattice", "arith", "payload"))


# Runs cli.main on each (argv, exit code) in turn and prints, for each,
# whether numpy is loaded after it.
_RUNS = (
    "import contextlib, io, json, sys\n"
    "from cubic7 import cli\n"
    "loaded = []\n"
    "for argv, want in {runs!r}:\n"
    "    out = contextlib.redirect_stdout(io.StringIO())\n"
    "    with out, contextlib.redirect_stderr(io.StringIO()):\n"
    "        try:\n"
    "            code = cli.main(argv)\n"
    "        except SystemExit as stop:\n"
    "            code = stop.code\n"
    "    assert code == want, (argv, code)\n"
    "    loaded.append([' '.join(argv), 'numpy' in sys.modules])\n"
    "print(json.dumps(loaded))\n"
)


def _numpy_after(runs):
    """[(command, numpy loaded after it)] for runs in one fresh process."""
    done = subprocess.run([sys.executable, "-c", _RUNS.format(runs=runs)],
                          capture_output=True, text=True, check=True)
    return [tuple(row) for row in json.loads(done.stdout.splitlines()[-1])]


@pytest.mark.parametrize("fixture", [None, "f_fac1"])
def test_subcommands_without_arrays_never_load_numpy(request, tmp_path, fixture):
    form = []
    if fixture:
        path = tmp_path / "form.json"
        path.write_text(json.dumps(form_to_dict(request.getfixturevalue(fixture))))
        form = ["--form", str(path)]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    runs = [(form + ["classify"], 0), (form + ["spaces"], 0),
            (form + ["local", "--N", "905174"], 0),
            (["--form", str(bad), "classify"], 2), (form + ["--help"], 0)]
    assert _numpy_after(runs) == [(" ".join(argv), False) for argv, _ in runs]


def test_array_subcommand_loads_numpy():
    assert _numpy_after([(["count", "--N", "5", "--P", "1"], 0)]) == [
        ("count --N 5 --P 1", True)]


_NUMPY_FREE = ("cli", "forms", "arith", "lattice", "payload", "errors", "local")


def _eager_numpy_imports(source: str) -> list[int]:
    """Lines of the numpy imports that run when the module is imported:
    those outside function bodies and `if TYPE_CHECKING:` blocks."""
    lines, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            todo += node.orelse
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            names = []
        if any(n.split(".")[0] == "numpy" for n in names):
            lines.append(node.lineno)
        todo += ast.iter_child_nodes(node)
    return sorted(lines)


def test_eager_numpy_import_finder():
    source = ("import os, numpy.linalg\n"
              "try:\n    from numpy import int64\nexcept ImportError:\n    pass\n"
              "if TYPE_CHECKING:\n    import numpy as np\n"
              "def f():\n    import numpy as np\n"
              "class C:\n    import numpy\n")
    assert _eager_numpy_imports(source) == [1, 3, 11]


@pytest.mark.parametrize("name", _NUMPY_FREE)
def test_startup_modules_import_numpy_lazily(name):
    path = Path(cubic7.__file__).with_name(f"{name}.py")
    lines = _eager_numpy_imports(path.read_text())
    assert not lines, f"{path.name} imports numpy at module level, lines {lines}"


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
    # cli loads no numpy; a subcommand that builds arrays imports it later.
    _, blas, threads = _fresh("from cubic7 import cli\nimport numpy")
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
