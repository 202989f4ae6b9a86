"""Package structure: module layering and import cost."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import snrsub

LAYERS = ("core", "smoother", "simgen", "subsample", "harness", "cli")
SRC = Path(snrsub.__file__).parent


def imported_modules(path: Path) -> set[str]:
    """snrsub modules a source file imports, at any depth (function-local too)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module and node.module.startswith("snrsub."):
                    found.add(node.module.split(".")[1])
            elif node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("snrsub."):
                    found.add(alias.name.split(".")[1])
    return found


def test_every_module_is_layered():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(f"snrsub.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_earlier_layers(module):
    earlier = set(LAYERS[:LAYERS.index(module)])
    assert imported_modules(SRC / f"{module}.py") <= earlier


def test_cli_import_leaves_scipy_signal_unloaded():
    code = "import sys, snrsub.cli; sys.exit('scipy.signal' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr or "scipy.signal was imported"


def test_cli_import_leaves_process_pools_unloaded():
    # a pool is started only by parallel_map at more than one worker
    code = "import sys, snrsub.cli; sys.exit('concurrent.futures' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr or "concurrent.futures was imported"


def test_no_module_imports_scipy():
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name


def test_simulating_ar_noise_leaves_scipy_unloaded(tmp_path):
    # 10 s at 44.1 kHz: 441 000 samples of AR(1) noise, long enough for many scan chunks
    argv = ["simulate", "--design", "ar", "--duration", "10", "--out", str(tmp_path / "ar.f64")]
    code = ("import sys; from snrsub.cli import main; code = main(sys.argv[1:]); "
            "sys.exit(code or 'scipy' in {m.split('.')[0] for m in sys.modules})")
    run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr or "scipy was imported"
    assert (tmp_path / "ar.f64").stat().st_size == 441_000 * 8
