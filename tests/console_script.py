"""Run the declared ``ensemble-metrics`` console script in a fresh interpreter.

The command is not looked up on PATH, so no installed package is needed.
The target comes from ``[project.scripts]`` in ``pyproject.toml``, and the
child runs the body that setuptools writes into a console-script wrapper.
The child imports the same ``ensemble_metrics`` that the calling process
imported, from any working directory, and starts with no seed override
from the environment.
"""

import os
import subprocess
import sys
from pathlib import Path

import ensemble_metrics
from ensemble_metrics.cli import SEED_ENV

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SCRIPT = "ensemble-metrics"


def _read_pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        import pytest

        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def entry_point_argv():
    """The interpreter command equivalent to the installed console script."""
    module, func = _read_pyproject()["project"]["scripts"][SCRIPT].split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code]


def child_env():
    """The environment of a child interpreter that imports the same
    ``ensemble_metrics`` as this process, with no seed override."""
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV}
    package_root = str(Path(ensemble_metrics.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_console_script(*args, cwd=None):
    """Run ``ensemble-metrics *args`` as a separate process and capture its output."""
    return subprocess.run(
        [*entry_point_argv(), *map(str, args)], capture_output=True, env=child_env(), cwd=cwd
    )
