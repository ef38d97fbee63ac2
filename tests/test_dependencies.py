"""numpy is the package's only runtime dependency (pyproject.toml). scipy
and the test tools are installed beside it, so an import of one of them in
``src/dexter`` would pass every other test and fail only where it is
missing."""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "dexter")
ALLOWED = sys.stdlib_module_names | {"numpy", "dexter"}


def imported_packages(source: str) -> set:
    """The top-level names of the packages ``source`` imports absolutely,
    wherever the import statement stands."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_packages_sees_every_absolute_import():
    source = ("import os.path, numpy as np\nfrom . import cli\nfrom .errors import DataError\n"
              "def f():\n    from scipy.stats import beta\n    import hypothesis\n")
    assert imported_packages(source) == {"os", "numpy", "scipy", "hypothesis"}


def test_the_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "cli.py" in modules
    outside = {}
    for name in modules:
        with open(os.path.join(SRC, name), encoding="utf-8") as handle:
            extra = imported_packages(handle.read()) - ALLOWED
        if extra:
            outside[name] = sorted(extra)
    assert outside == {}


def test_importing_the_cli_loads_no_pool_machinery():
    """``concurrent.futures`` is imported where ``bench --jobs`` makes its
    pool, so starting the CLI does not pay for it."""
    src = os.path.dirname(os.path.abspath(SRC))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, dexter.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"
