"""Every name that the package or one of its modules exports resolves."""

import importlib
import os
import subprocess
import sys

import pytest

MODULES = ("funcseries", "funcseries.exact", "funcseries.pseries", "funcseries.bell",
           "funcseries.catalog", "funcseries.approx", "funcseries.cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_its_modules_lists():
    import funcseries
    from funcseries import approx, bell, catalog, exact, pseries

    lists = [exact.__all__, pseries.__all__, catalog.__all__, approx.__all__, bell.__all__]
    expected = ["__version__"] + [name for names in lists for name in names]
    assert sorted(funcseries.__all__) == sorted(expected)
    assert len(set(funcseries.__all__)) == len(funcseries.__all__)
    assert funcseries._BELL_NAMES == set(bell.__all__)


def test_bell_names_resolve_after_a_bare_import():
    # bell loads on first use, through the package's module __getattr__;
    # cli is not re-exported, so a bare import leaves argparse unloaded
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        importlib.import_module("funcseries").__file__)))
    code = (
        "import sys\n"
        "import funcseries\n"
        "print('funcseries.bell' in sys.modules, 'funcseries.cli' in sys.modules)\n"
        "print(funcseries.bell.__name__, funcseries.bell_values is funcseries.bell.bell_values)\n"
        "from funcseries import gate_report\n"
        "print(gate_report is funcseries.bell.gate_report, funcseries.gate_report())\n"
        "try:\n"
        "    funcseries.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "False False",
        "funcseries.bell True",
        "True {}",
        "module 'funcseries' has no attribute 'no_such_name'",
    ]
