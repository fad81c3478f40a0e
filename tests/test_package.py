import os
import subprocess
import sys
from pathlib import Path

import subgauss


def test_every_exported_name_resolves():
    missing = [name for name in subgauss.__all__ if not hasattr(subgauss, name)]
    assert missing == []


def test_cli_import_leaves_quadrature_and_special_functions_unloaded():
    # the import is every run's set-up time; scipy.integrate and scipy.special
    # load only when a quadrature first runs
    code = ("import sys, subgauss.cli_report; "
            "print(sorted({'scipy.integrate', 'scipy.special'} & set(sys.modules)))")
    # the child imports the package from where this process found it
    src = str(Path(subgauss.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
