"""Spans around the program's public functions, recorded from outside it.

Each function is wrapped under the name its caller looks it up by (the
caller's module global), so the program itself is unchanged.  Spans are kept
in memory; a span's self time is its duration minus that of its direct
children, and a module's self time is the sum over its spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module the caller looks the name up in, attribute, span name = defining module.function)
TARGETS = (
    ("snrsub.cli", "read_input", "cli.read_input"),
    ("snrsub.cli", "gen_design", "simgen.gen_design"),
    ("snrsub.harness", "gen_design", "simgen.gen_design"),
    ("snrsub.cli", "estimate_snr_distribution", "subsample.estimate_snr_distribution"),
    ("snrsub.subsample", "estimate_snr_distribution", "subsample.estimate_snr_distribution"),
    ("snrsub.harness", "estimate_snr_distribution", "subsample.estimate_snr_distribution"),
    ("snrsub.subsample", "empirical_quantile", "core.empirical_quantile"),
    ("snrsub.harness", "empirical_quantile", "core.empirical_quantile"),
    ("snrsub.subsample", "select_bandwidth", "smoother.select_bandwidth"),
    ("snrsub.subsample", "priestley_chao_fit", "smoother.priestley_chao_fit"),
    ("snrsub.smoother", "priestley_chao_fit", "smoother.priestley_chao_fit"),
    ("snrsub.cli", "mse_signal_power", "harness.mse_signal_power"),
    ("snrsub.cli", "quantile_mae", "harness.quantile_mae"),
    ("snrsub.harness", "oracle_quantiles", "harness.oracle_quantiles"),
)

# block lengths of the wide-blocks grid, 10..100 ms at 44.1 kHz
PER_B = (441, 882, 1323, 1764, 2205, 2646, 3087, 3528, 3969, 4410)


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.info: dict = {}


def _estimate_info(args, kwargs, result, error) -> dict:
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    source = result if error is None else error
    return {"blocks": cfg.k_blocks, "skipped": getattr(source, "skipped", 0)}


def _bandwidth_info(args, kwargs, result, error) -> dict:
    info = {"b": len(args[0])}
    if error is None:
        curve = result.cv_curve
        info["rejected"] = sum(1 for _, cv in curve if cv == float("inf"))
        info["lower_edge"] = int(result.h_hat == curve[0][0])
    return info


INFO = {
    "subsample.estimate_snr_distribution": _estimate_info,
    "smoother.select_bandwidth": _bandwidth_info,
}


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers again."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        info = INFO.get(name)

        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            result = error = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                error = e
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if info is not None:
                    span.info = info(args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        return wrapper


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times (s, ms) and counts from one set of spans."""
    dur = [s.end - s.start for s in spans]
    child = defaultdict(float)  # id(span) -> summed duration of its direct children
    for s, d in zip(spans, dur):
        if s.parent is not None:
            child[id(s.parent)] += d
    total, calls, self_by_name = defaultdict(float), defaultdict(int), defaultdict(float)
    info = defaultdict(float)
    bw_time, bw_calls = defaultdict(float), defaultdict(int)
    for s, d in zip(spans, dur):
        total[s.name] += d
        calls[s.name] += 1
        self_by_name[s.name] += d - child[id(s)]
        for key, value in s.info.items():
            if key != "b":
                info[key] += value
        if s.name == "smoother.select_bandwidth":
            bw_time[s.info["b"]] += d
            bw_calls[s.info["b"]] += 1

    def per_block_ms(time_s, n):
        return 1000.0 * time_s / n if n else 0.0

    m = {
        "cli.read_input_s": total["cli.read_input"],
        "core.empirical_quantile_s": total["core.empirical_quantile"],
        "core.empirical_quantile_calls": calls["core.empirical_quantile"],
        "simgen.gen_design_s": total["simgen.gen_design"],
        "simgen.gen_design_calls": calls["simgen.gen_design"],
        "subsample.estimate_s": total["subsample.estimate_snr_distribution"],
        "subsample.estimate_calls": calls["subsample.estimate_snr_distribution"],
        "subsample.blocks": int(info["blocks"]),
        "subsample.skipped": int(info["skipped"]),
        "smoother.select_bandwidth_s": total["smoother.select_bandwidth"],
        "smoother.select_bandwidth_ms_per_block": per_block_ms(
            total["smoother.select_bandwidth"], calls["smoother.select_bandwidth"]),
        "smoother.fit_s": total["smoother.priestley_chao_fit"],
        "smoother.fit_calls": calls["smoother.priestley_chao_fit"],
        "smoother.cv_self_s": self_by_name["smoother.select_bandwidth"],
        "smoother.candidates_rejected": int(info["rejected"]),
        "smoother.lower_edge_blocks": int(info["lower_edge"]),
        "harness.oracle_s": total["harness.oracle_quantiles"],
        "harness.mse_signal_power_s": total["harness.mse_signal_power"],
        "harness.quantile_mae_s": total["harness.quantile_mae"],
        "harness.self_s": sum((v for k, v in self_by_name.items() if k.startswith("harness.")), 0.0),
    }
    for b in PER_B:
        m[f"smoother.select_bandwidth_ms_per_block.b{b}"] = per_block_ms(bw_time[b], bw_calls[b])
    return m


COUNTS = ("subsample.blocks", "subsample.skipped", "subsample.estimate_calls",
          "smoother.fit_calls", "smoother.candidates_rejected", "smoother.lower_edge_blocks",
          "core.empirical_quantile_calls", "simgen.gen_design_calls")
