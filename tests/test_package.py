import subprocess
import sys

import subgauss


def test_every_exported_name_resolves():
    missing = [name for name in subgauss.__all__ if not hasattr(subgauss, name)]
    assert missing == []


def test_cli_import_leaves_quadrature_and_special_functions_unloaded():
    # the import is every run's set-up time; scipy.integrate and scipy.special
    # load only when a quadrature first runs
    code = ("import sys, subgauss.cli_report; "
            "print(sorted({'scipy.integrate', 'scipy.special'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
