"""Every name a layer exports in ``__all__`` resolves on its module, and the
CLI starts on the standard library and numpy alone."""

import importlib
import os
import subprocess
import sys

import pytest

LAYERS = ("families", "measures", "selection", "czmax", "threshold", "weyl", "dynsys")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    mod = importlib.import_module(f"ergodecay.{layer}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _top_level_modules(code: str) -> set:
    """Top-level names in sys.modules after ``code`` runs in a fresh interpreter."""
    import ergodecay

    src = os.path.dirname(os.path.dirname(ergodecay.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    show = "print(' '.join({name.partition('.')[0] for name in sys.modules}))"
    out = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{show}"], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_start_imports_only_stdlib_and_numpy():
    # a heavy import on the CLI's path costs every run its load time and memory
    added = _top_level_modules("import ergodecay.cli\nergodecay.cli.build_parser()")
    added -= _top_level_modules("")  # what site hooks load does not count
    allowed = set(sys.stdlib_module_names) | {"numpy", "ergodecay"}
    assert "ergodecay" in added and sorted(added - allowed) == []
