"""The public surface: every demo runs, and every exported name resolves."""

import importlib
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import expspec

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the demos write their artifacts next to themselves, so run a copy
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    modules = [expspec] + [
        importlib.import_module(f"expspec.{m.name}") for m in pkgutil.iter_modules(expspec.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
