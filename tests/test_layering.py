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

# every public name as frozen when this list was made: each module's
# ``__all__`` and the names ``snrsub/__init__.py`` re-exports ("snrsub").
# A name may be added anywhere without editing this list; none may go.
PUBLIC_NAMES = {
    "core": ["TimeSeries", "DependenceRegime", "SRD", "lrd", "snr_db", "lambda_n", "tau_n",
             "empirical_quantile", "signal_power", "mapped_file", "sample_reader"],
    "smoother": ["BandwidthGrid", "KernelFit", "epanechnikov", "priestley_chao_fit",
                 "pow2_scaled", "autocovariance", "cv_objective", "select_bandwidth"],
    "simgen": ["SignalSpec", "NoiseSpec", "sample_count", "derive_seed", "derive_rng",
               "calibrate_amplitude", "gen_sine", "gen_ar1", "gen_powerlaw", "gen_design",
               "DESIGNS", "design_noise"],
    "subsample": ["SubsampleConfig", "SubsampleEstimate", "SnrDistribution",
                  "BlockSizeSelection", "ExcessiveSkipsError", "KTooLargeError", "default_b1",
                  "admissible_starts", "draw_blocks", "cut_block", "block_estimate",
                  "estimate_blocks", "estimate_snr_distribution", "confidence_interval",
                  "select_block_size"],
    "harness": ["ExperimentSpec", "McCell", "McReport", "mse_signal_power", "mc_reports",
                "mise_probe", "oracle_draws", "oracle_quantiles", "quantile_mae",
                "exhaustive_subsample_check", "ExhaustiveComparison", "replica_distribution",
                "ks_distance"],
    "snrsub": ["SRD", "DependenceRegime", "TimeSeries", "empirical_quantile", "lambda_n", "lrd",
               "signal_power", "snr_db", "tau_n", "ExperimentSpec", "McCell", "McReport",
               "exhaustive_subsample_check", "ks_distance", "mc_reports", "mise_probe",
               "mse_signal_power", "oracle_draws", "oracle_quantiles", "quantile_mae",
               "DESIGNS", "NoiseSpec", "SignalSpec", "calibrate_amplitude", "derive_rng",
               "derive_seed", "gen_ar1", "gen_design", "gen_powerlaw", "gen_sine",
               "BandwidthGrid", "KernelFit", "autocovariance", "cv_objective", "epanechnikov",
               "priestley_chao_fit", "select_bandwidth", "ExcessiveSkipsError",
               "KTooLargeError", "SnrDistribution", "SubsampleConfig", "SubsampleEstimate",
               "block_estimate", "confidence_interval", "default_b1", "draw_blocks",
               "estimate_snr_distribution", "select_block_size", "__version__"],
}


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


@pytest.mark.parametrize("module", PUBLIC_NAMES)
def test_public_names_keep_working(module):
    mod = snrsub if module == "snrsub" else importlib.import_module(f"snrsub.{module}")
    names = PUBLIC_NAMES[module]
    assert [name for name in names if not hasattr(mod, name)] == []
    if module != "snrsub":
        assert set(names) <= set(mod.__all__)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_earlier_layers(module):
    earlier = set(LAYERS[:LAYERS.index(module)])
    assert imported_modules(SRC / f"{module}.py") <= earlier


def test_cli_import_leaves_scipy_signal_unloaded():
    code = "import sys, snrsub.cli; sys.exit('scipy.signal' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr or "scipy.signal was imported"


def test_cli_import_leaves_process_pools_unloaded():
    # concurrent.futures is imported only where a pool of more than one
    # worker starts (subsample._shared_pool and parallel_imap)
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
