"""Package structure: module layering and import cost."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_package_import_loads_no_command_line_pool_or_draw_machinery():
    # ``import snrsub`` is the start-up cost of every process that uses the
    # package; what only the CLI, a worker pool or a random draw or FFT needs
    # is imported where it is used
    unloaded = ("argparse", "csv", "wave", "concurrent.futures", "multiprocessing",
                "numpy.random", "numpy.fft")
    code = f"import sys, snrsub; print(sorted(set({unloaded!r}) & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_estimate_leaves_numpy_ma_unloaded(tmp_path):
    # np.median loads numpy.ma through its NaN check; estimate takes its
    # median from the sorted bandwidths instead
    path = tmp_path / "x.raw"
    np.random.default_rng(2).normal(size=20_000).tofile(path)
    argv = ["estimate", "--input", str(path), "--fs", "44100", "--block-samples", "441",
            "--k", "20", "--out", str(tmp_path / "x.json")]
    code = ("import sys; from snrsub.cli import main; code = main(sys.argv[1:]); "
            "sys.exit(code or 'numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr or "numpy.ma was imported"


def test_one_chunk_bound():
    # every chunked float64 loop is bounded by core.CHUNK_SAMPLES; only the
    # WAV writer, whose working memory is pinned lower, keeps its own
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            found.update(f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name)
                         and (t.id == "CHUNK_SAMPLES"
                              or t.id.endswith(("_CHUNK_SAMPLES", "_BATCH_SAMPLES",
                                                "_SLAB_SAMPLES"))))
    assert found == {"core.CHUNK_SAMPLES", "cli.WAV_CHUNK_SAMPLES"}


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


def test_no_module_reads_the_numpy_version():
    # NumPy 2.0 is the floor (pyproject.toml), so no code forks on the version;
    # the package's own ``__version__ = ...`` is a store, not a read
    found = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[-1] in ("__version__", "NumpyVersion")]
    assert found == []


def callers(name: str) -> set[str]:
    """'module.owner' of each top-level statement of the package that calls
    ``name``: a def or class by its name, a module-level assignment by its target."""
    found = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            owner = (ast.unparse(top.targets[0]) if isinstance(top, ast.Assign)
                     else getattr(top, "name", ""))
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    if name == (func.attr if isinstance(func, ast.Attribute)
                                else getattr(func, "id", "")):
                        found.add(f"{path.stem}.{owner}")
    return found


def test_one_kernel_stencil_rule():
    # the direct fits and the FFT CV plan take their stencils from one rule,
    # and K(0) is one constant, so the two engines cannot drift apart
    assert callers("epanechnikov") == {"smoother._kernel_stencil", "smoother._K0"}


def test_one_selection_path():
    # one function states the whole bandwidth rule: it ranks by the FFT CV
    # values and confirms by direct refits, with no helper between them
    assert callers("_fft_cv") == {"smoother.select_bandwidth"}
    assert callers("_first_minimum") == {"smoother.select_bandwidth"}


def test_one_noise_gate():
    # every noise draw is a slab of NoiseSpec.slabs, so NoiseSpec's checks
    # are the one gate in front of each synthesis
    for synthesis in ("_white_slabs", "_ar1_slabs", "_powerlaw_slabs"):
        assert callers(synthesis) == {"simgen.NoiseSpec"}, synthesis


def test_one_report_builder():
    # every Monte Carlo cell, and every report of them, comes from one rule;
    # cmd_mc only regroups the cells of the reports it was given
    assert callers("McReport") == {"harness._report", "cli.cmd_mc"}
    assert callers("McCell") == {"harness._report"}


def test_one_finiteness_gate_in_the_command_line():
    # main checks every float flag once, before any work; _block_samples
    # checks the block lengths a finite flag can still overflow to, and
    # _read_csv each cell of a CSV input
    assert {c for c in callers("isfinite") if c.startswith("cli.")} == {
        "cli.main", "cli._block_samples", "cli._read_csv"}
