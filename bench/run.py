"""End-to-end benchmark of the snrsub command line, with a traced per-module split.

Usage, from the repository root:

    python3 bench/run.py --workload estimate-long --seed 1 --seconds 35 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` every
timed command runs as its own ``python -m snrsub.cli`` process and the
end-to-end metrics are reported; with ``--trace 1`` the ``--threads 1``
commands run in this process through ``snrsub.cli.main`` with spans around
the public functions of each module (see spans.py), and the per-layer
metrics are reported.  Outputs are checked after the timed region (see
checks.py).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  README.md lists the
workloads, their inputs and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
DIGESTS = ROOT / "bench" / "digests.json"
PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
WORKERS = min(2, os.cpu_count() or 1)

FS = "44100"
PINNED_SEED = 20240501  # recording and block seed of the scaled estimate, fixed on every --seed
SCALE = 2.0 ** -20  # microvolt-scale copy of a unit-variance recording
SETUP_REPEATS = 3
MC_REPLICAS = 2
REFERENCE_BLOCKS = 4
END_TO_END = {"setup_s": "s", "wall_s": "s", "wall_t2_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------- running commands

@dataclass
class Run:
    wall: float
    rss_mb: float
    code: int
    stderr: str
    stdout: str = ""


def spawn(argv: list[str]) -> Run:
    """Run one process to its end: wall time from spawn to exit and its peak RSS."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=ENV, cwd=ROOT, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                   err.read().decode(errors="replace"), out.read().decode(errors="replace"))


def snrsub_process(argv: list[str]) -> Run:
    return spawn([PY, "-m", "snrsub.cli", *argv])


def snrsub_inprocess(cli, argv: list[str]) -> Run:
    """snrsub.cli.main(argv) in this process; an escaping exception counts as a failure."""
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return Run(time.perf_counter() - t0, 0.0, code, err.getvalue())


def error_code(run: Run) -> str:
    for line in reversed(run.stderr.splitlines()):
        with contextlib.suppress(ValueError, KeyError, TypeError):
            return json.loads(line)["error"]["code"]
    return run.stderr.strip()[-200:] or f"exit {run.code}"


def flush(directory: Path) -> None:
    """fsync the files written so far, so that their writeback does not land in the timed rounds."""
    for path in directory.iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


@contextlib.contextmanager
def recording(module, attr: str):
    """Collect every value returned by module.attr while the block runs."""
    original, seen = getattr(module, attr), []

    def record(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(result)
        return result

    setattr(module, attr, record)
    try:
        yield seen
    finally:
        setattr(module, attr, original)


# ---------------------------------------------------------------- workloads

@dataclass
class Op:
    key: str
    argv: list[str]
    threads: int
    metric: str | None  # end-to-end metric the op's wall time feeds
    outputs: list[Path]


@dataclass
class Workload:
    seed: int
    out: Path
    ops: list[Op] = field(default_factory=list)
    pairs: list[tuple[str, str]] = field(default_factory=list)  # byte-identical outputs

    def simulate_argv(self, design: str, seed: int, path: Path) -> list[str]:
        return ["simulate", "--design", design, "--snr", "10", "--duration", "100",
                "--seed", str(seed), "--out", str(path)]

    def inputs(self) -> list[list[str]]:
        """simulate commands writing this workload's recordings."""
        return []

    def setup_commands(self) -> list[list[str]]:
        return [[PY, "-m", "snrsub.cli", *argv] for argv in self.inputs()]

    def setup(self) -> list[float]:
        """Run the set-up commands, in turn, SETUP_REPEATS times in all; the wall time of each."""
        cmds = self.setup_commands()
        times = []
        for i in range(SETUP_REPEATS):
            run = spawn(cmds[i % len(cmds)])
            if run.code != 0:
                raise RuntimeError(f"set-up failed: {run.stderr.strip()}")
            times.append(run.wall)
        self.after_setup()
        flush(self.out)
        return times

    def setup_inprocess(self, cli) -> None:
        for argv in self.inputs():
            run = snrsub_inprocess(cli, argv)
            if run.code != 0:
                raise RuntimeError(f"set-up failed: {run.stderr.strip()}")
        self.after_setup()
        flush(self.out)

    def after_setup(self) -> None:
        pass

    def check(self, snrsub, first: dict) -> tuple[list[str], dict]:
        """Problems found in the first round's outputs, and digest material."""
        raise NotImplementedError


class EstimateLong(Workload):
    """`estimate` on a 100 s AR(1) recording at 10 dB, b = 662, K = 200."""

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        self.recording = out / "ar10.f64"
        self.pinned = out / "ar10_pinned.f64"
        self.scaled = out / "ar10_pinned_scaled.f64"
        for threads in (1, 2):
            self.ops.append(Op(f"t{threads}", self.estimate_argv(self.recording, seed, threads, f"t{threads}"),
                               threads, "wall_s" if threads == 1 else "wall_t2_s",
                               [out / f"t{threads}.json", out / f"t{threads}.csv"]))
        self.ops.append(Op("scaled", self.estimate_argv(self.scaled, PINNED_SEED, 1, "scaled"),
                           1, None, [out / "scaled.json"]))
        self.pairs = [("t1", "t2")]

    def estimate_argv(self, path: Path, seed: int, threads: int, tag: str) -> list[str]:
        argv = ["estimate", "--input", str(path), "--fs", FS, "--block-samples", "662",
                "--k", "200", "--seed", str(seed), "--threads", str(threads),
                "--out", str(self.out / f"{tag}.json")]
        if tag != "scaled":
            argv += ["--snr-csv", str(self.out / f"{tag}.csv")]
        return argv

    def inputs(self):
        return [self.simulate_argv("ar", self.seed, self.recording),
                self.simulate_argv("ar", PINNED_SEED, self.pinned)]

    def after_setup(self):
        (np.fromfile(self.pinned, dtype="<f8") * SCALE).astype("<f8").tofile(self.scaled)

    def check(self, snrsub, first):
        problems = []
        report = json.loads(first["t1"][0])
        csv_values = [float(x) for x in first["t1"][1].decode().split()[1:]]
        problems += checks.check_estimate_report(report, csv_values, 10.0)

        series = snrsub.cli.read_input(snrsub.cli.InputDescriptor(str(self.recording), "raw_f64le", float(FS)))
        cfg = snrsub.SubsampleConfig(b=662, k_blocks=200, seed=self.seed)
        dist = snrsub.estimate_snr_distribution(series, cfg)
        if dist.snr_values.tolist() != csv_values:
            problems.append("in-process estimate_snr_distribution differs from the CLI's --snr-csv")
        kept = [e for e in dist.estimates if not e.skipped]
        rng = np.random.default_rng(self.seed)
        csv = np.array(csv_values)
        for i in sorted(rng.choice(len(kept), size=REFERENCE_BLOCKS, replace=False)):
            est = kept[i]
            block = np.asarray(series.samples[est.start - 1:est.start - 1 + cfg.b])
            snr, h = checks.reference_block_snr(block)
            if not np.min(np.abs(csv - snr)) <= checks.REL_TOL * max(1.0, abs(snr)):
                problems.append(f"block at {est.start}: reference SNR {snr!r} dB not in the CSV")
            if not checks.close(h, est.h_hat, 1e-12):
                problems.append(f"block at {est.start}: reference h {h!r}, program {est.h_hat!r}")

        scaled = first.get("scaled")
        if scaled is not None:
            ref = snrsub_inprocess(snrsub.cli, self.estimate_argv(self.pinned, PINNED_SEED, 1, "pinned"))
            if ref.code != 0:
                problems.append(f"unscaled pinned estimate failed: {error_code(ref)}")
            else:
                reference = json.loads((self.out / "pinned.json").read_bytes())
                problems += checks.check_same_quantiles(json.loads(scaled[0]), reference)
            scaled_results = json.loads(scaled[0])["results"]
        else:
            scaled_results = None
        return problems, {"h_hat": [e.h_hat for e in dist.estimates],
                          "quantiles": {"t1": report["results"], "scaled": scaled_results}}


class McDesk(Workload):
    """`mc --metric both` for designs ar and p2 at 6 dB, b = 10 and 15 ms, K = 200."""

    DESIGNS = ("ar", "p2")

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        for threads in (1, 2):
            for design in self.DESIGNS:
                key = f"{design}-t{threads}"
                path = out / f"{key}.json"
                argv = ["mc", "--design", design, "--snr", "6", "--metric", "both",
                        "--b-ms", "10,15", "--k", "200", "--replicas", str(MC_REPLICAS),
                        "--seed", str(seed), "--threads", str(threads), "--out", str(path)]
                self.ops.append(Op(key, argv, threads, "wall_s" if threads == 1 else "wall_t2_s", [path]))
        self.pairs = [(f"{d}-t1", f"{d}-t2") for d in self.DESIGNS]

    def setup_commands(self):
        """No input files: the set-up is a fresh interpreter importing snrsub."""
        return [[PY, "-c", "import snrsub"]]

    def check(self, snrsub, first):
        reports = {d: json.loads(first[f"{d}-t1"][0]) for d in self.DESIGNS}
        problems = checks.check_mc_reports(reports)
        h_hats = {}
        for design, report in reports.items():
            spec = snrsub.ExperimentSpec(**report["reports"]["mse"]["spec"])
            per_replica = {b: [] for b in spec.block_lengths}
            h_hats[design] = {}
            for b in spec.block_lengths:
                h_hats[design][b] = []
                for r in range(spec.replicas):
                    dist = snrsub.harness.replica_distribution(spec, b, r)
                    kept = [e for e in dist.estimates if not e.skipped]
                    per_replica[b].append(([e.start for e in kept], [e.signal_power for e in kept]))
                    h_hats[design][b].append([e.h_hat for e in dist.estimates])
            problems += checks.check_mse_cells(report, per_replica)
        return problems, {"h_hat": h_hats, "quantiles": {d: r["reports"] for d, r in reports.items()}}


class WideBlocks(Workload):
    """`select-block` on a 100 s p2 recording at 10 dB, grid 10..100 ms, K = 100."""

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        self.recording = out / "p2_10.f64"
        for threads in (1, 2):
            path = out / f"t{threads}.json"
            argv = ["select-block", "--input", str(self.recording), "--fs", FS,
                    "--grid-min", "10", "--grid-max", "100", "--grid-steps", "10",
                    "--k", "100", "--seed", str(seed), "--threads", str(threads), "--out", str(path)]
            self.ops.append(Op(f"t{threads}", argv, threads,
                               "wall_s" if threads == 1 else "wall_t2_s", [path]))
        self.pairs = [("t1", "t2")]

    def inputs(self):
        return [self.simulate_argv("p2", self.seed, self.recording)]

    def check(self, snrsub, first):
        report = json.loads(first["t1"][0])
        problems = checks.check_select_block(report)
        table = report["results"]["table"]
        series = snrsub.cli.read_input(snrsub.cli.InputDescriptor(str(self.recording), "raw_f64le", float(FS)))
        cand = [row["b"] for row in table]
        cfg = snrsub.SubsampleConfig(b=cand[0], k_blocks=100, seed=self.seed, workers=WORKERS)
        with recording(snrsub.subsample, "estimate_snr_distribution") as dists:
            sel = snrsub.select_block_size(series, cand, cfg)
        if (list(sel.q_low), list(sel.q_high), sel.chosen_b) != (
                [r["q_low"] for r in table], [r["q_high"] for r in table],
                report["results"]["chosen_b_samples"]):
            problems.append("in-process select_block_size differs from the CLI report")

        b = cand[-1]
        start = int(np.random.default_rng(self.seed).integers(1, series.n - b + 2))
        block = np.asarray(series.samples[start - 1:start - 1 + b])
        fit = snrsub.select_bandwidth(block)
        problems += [f"block at {start}, b={b}: {p}" for p in checks.check_cv_curve(fit.cv_curve, fit.h_hat, block)]
        h_hats = {d.config.b: [e.h_hat for e in d.estimates] for d in dists}
        return problems, {"h_hat": h_hats, "quantiles": report["results"]}


WORKLOADS = {"estimate-long": EstimateLong, "mc-desk": McDesk, "wide-blocks": WideBlocks}


# ---------------------------------------------------------------- one run

def import_snrsub():
    sys.path.insert(0, str(SRC))
    import snrsub
    import snrsub.cli
    import snrsub.harness
    import snrsub.subsample

    if not Path(snrsub.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"snrsub imported from {snrsub.__file__}, not from {SRC}")
    return snrsub


def fresh_import_seconds() -> float:
    run = spawn([PY, "-c", "import time; t = time.perf_counter(); import snrsub.cli; "
                           "print(repr(time.perf_counter() - t))"])
    if run.code != 0:
        raise RuntimeError(f"import snrsub.cli failed: {run.stderr.strip()}")
    return float(run.stdout)


def run_workload(name: str, seed: int, seconds: float, trace: bool, write_digest: bool) -> dict:
    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, out)
    print(f"== {name}: seed {seed}, {seconds:g} s, trace {int(trace)}")

    # warm-up: byte-compile the package and fill the file cache; checks where it imports from
    run = spawn([PY, "-c", "import snrsub.cli, sys; sys.stdout.write(snrsub.cli.__file__)"])
    if run.code != 0 or not Path(run.stdout).resolve().is_relative_to(SRC):
        raise RuntimeError(f"snrsub does not import from {SRC}: {run.stderr.strip() or run.stdout}")

    tracer = spans.Tracer()
    snrsub = cli = None
    setup_spans: list = []
    if trace:
        snrsub = import_snrsub()
        cli = snrsub.cli
        tracer.install()
        try:
            wl.setup_inprocess(cli)
        finally:
            tracer.uninstall()
        setup_spans = tracer.take()
        if tracer.missing:
            print(f"not wrapped (absent): {', '.join(tracer.missing)}")
        setup_times = []
    else:
        setup_times = wl.setup()
        print(f"setup: {', '.join(f'{t:.3f}' for t in setup_times)} s")

    rounds: list[dict] = []
    t_start = time.perf_counter()
    while True:
        mode = "process" if not trace else ("inprocess", "traced")[len(rounds) % 2]
        results, inproc_s = {}, 0.0
        for op in wl.ops:
            if mode == "process" or op.threads > 1:
                r = snrsub_process(op.argv)
            else:
                if mode == "traced":
                    tracer.install()
                try:
                    r = snrsub_inprocess(cli, op.argv)
                finally:
                    tracer.uninstall()
                inproc_s += r.wall
            outputs = [p.read_bytes() for p in op.outputs] if r.code == 0 else None
            results[op.key] = (r, outputs)
        rounds.append({"mode": mode, "results": results, "inproc_s": inproc_s,
                       "spans": tracer.take() if mode == "traced" else None})
        elapsed = time.perf_counter() - t_start
        min_rounds = 2 if trace else 1
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break

    # ------------------------------------------------ outside the timed region
    problems: list[str] = []
    attempted = failed = 0
    first: dict = {}  # op key -> outputs of its first successful run
    ops = {op.key: op for op in wl.ops}
    for i, rnd in enumerate(rounds):
        for op in wl.ops:
            r, outputs = rnd["results"][op.key]
            attempted += 1
            if r.code != 0:
                failed += 1
                if i == 0:
                    print(f"failed: {op.key} ({' '.join(op.argv[:1])}): {error_code(r)}")
                continue
            if op.key not in first:
                first[op.key] = outputs
            elif outputs != first[op.key]:
                problems.append(f"round {i + 1}: {op.key} output differs from an earlier round")
        for a, b in wl.pairs:
            (ra, oa), (rb, ob) = rnd["results"][a], rnd["results"][b]
            if ra.code == 0 and rb.code == 0:
                for path, xa, xb in zip(ops[a].outputs, oa, ob):
                    problems += checks.check_identical(xa, xb, f"round {i + 1}: {a} vs {b} ({path.suffix})")

    missing = [op.key for op in wl.ops if op.metric == "wall_s" and op.key not in first]
    if missing:
        print(f"checks skipped: {', '.join(missing)} failed in every round")
        material = {"h_hat": None, "quantiles": None}
    else:
        if snrsub is None:
            snrsub = import_snrsub()
        found, material = wl.check(snrsub, first)
        problems += found
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if not problems:
        print("checks: all passed")

    dig = {"h_hat": checks.digest(material["h_hat"]), "quantiles": checks.digest(material["quantiles"])}
    report_digest(name, seed, dig, write_digest)

    if trace:
        metrics = traced_metrics(rounds, setup_spans, problems)
        units = {k: ("count" if k in spans.COUNTS else "ms" if "_ms" in k else "s") for k in metrics}
    else:
        metrics = {"setup_s": statistics.median(setup_times)}
        for metric in ("wall_s", "wall_t2_s", "peak_rss_mb"):
            per_round = []
            for rnd in rounds:
                runs = [rnd["results"][op.key][0] for op in wl.ops
                        if op.metric == ("wall_s" if metric == "peak_rss_mb" else metric)]
                if all(r.code == 0 for r in runs):
                    per_round.append(max(r.rss_mb for r in runs) if metric == "peak_rss_mb"
                                     else sum(r.wall for r in runs))
            print(f"{metric} per round: {', '.join(f'{v:.4f}' for v in per_round)}")
            metrics[metric] = statistics.median(per_round) if per_round else math.nan
        units = END_TO_END
    print(f"rounds {len(rounds)}, attempted {attempted}, failed {failed}")
    for k, v in metrics.items():
        print(f"{k} {v!r} {units[k]}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def traced_metrics(rounds: list[dict], setup_spans: list, problems: list[str]) -> dict:
    traced = [r for r in rounds if r["mode"] == "traced"]
    per_round = [spans.layer_metrics(setup_spans + r["spans"]) for r in traced]
    for m in per_round[1:]:
        for k in spans.COUNTS:
            if m[k] != per_round[0][k]:
                problems.append(f"traced count {k} differs between rounds: {m[k]} vs {per_round[0][k]}")
    metrics = {"cli.import_s": statistics.median(fresh_import_seconds() for _ in range(SETUP_REPEATS))}
    metrics.update({k: statistics.median(m[k] for m in per_round) for k in per_round[0]})
    metrics["trace.overhead_s"] = (statistics.median(r["inproc_s"] for r in traced)
                                   - statistics.median(r["inproc_s"] for r in rounds if r["mode"] == "inprocess"))
    return metrics


def report_digest(name: str, seed: int, dig: dict, write: bool) -> None:
    refs = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    ref = refs.get(name, {}).get(str(seed))
    if ref is None:
        verdict = f"no reference for seed {seed}"
    elif ref == dig:
        verdict = "matches the reference"
    else:
        verdict = f"DIFFERS from the reference {ref}"
    print(f"digest: h_hat {dig['h_hat']} quantiles {dig['quantiles']} ({verdict})")
    if write:
        refs.setdefault(name, {})[str(seed)] = dig
        DIGESTS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-digest", action="store_true",
                   help="store this run's digest as the reference for its workload and seed")
    args = p.parse_args(argv)
    # SystemExit on SIGTERM, so that a running snrsub process is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "snrsub" / "__init__.py").is_file():
        print(f"no snrsub package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.write_digest)
                   for n in names}
    except RuntimeError as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for n, r in results.items():
            print(f"{n}: {json.dumps(r)}")
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
