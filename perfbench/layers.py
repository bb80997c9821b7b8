"""Per-layer metrics from the spans `tracer.py` writes.

A layer is a module of `src/conf2`: the part of a span name before the
first dot.  A span's self time is its duration minus the durations of
its child spans; a layer's self time sums those of its spans.  A
`<span>_s` metric sums the durations of the spans of that name that are
not nested in another span of the same name.  `report.surface_s` is the
time of `run_pipeline` per surface, `borel.rss_delta_mb` how much
the process's peak RSS grew during borel spans, and `trace.span_cost_s`
the tracer's own cost: the number of spans times the cost of one span.
`cli.self_s` is the time of the CLI's root span outside every traced
call, so the reported `<layer>.self_s` values add up to the traced wall
time.
"""

from __future__ import annotations

from collections import defaultdict

NS = 1e-9
KIB_TO_MB = 1024 / 1e6
ROOT_SLACK_NS = 100_000

# Span name -> metric for the summed size of its calls.
SIZE_METRICS = {
    "cells.deleted_product": "cells.dp_cells",
    "borel.bicomplex": "borel.bicomplex_dim",
    "surfaces.kunneth": "surfaces.kunneth_dim",
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times_ns(spans) -> list[int]:
    child_ns = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child for (_, start, end, *_), child in zip(spans, child_ns)]


def accounting_error(trace: dict, metrics: dict[str, float]) -> str | None:
    """Why the spans or the reported self times fail to account for the traced wall time, or None.

    Every span must lie inside its parent, there must be one root, no
    self time may be negative, and the reported `<layer>.self_s` metrics
    must sum to the wall time measured around the CLI within a few
    spans' cost plus 0.1 ms.
    """
    spans = trace["spans"]
    if sum(1 for s in spans if s[3] < 0) != 1:
        return "spans do not form a single tree"
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            _, p_start, p_end, *_ = spans[parent]
            if parent >= i or not (p_start <= start <= end <= p_end):
                return f"span {name} lies outside its parent"
    if min(self_times_ns(spans)) < 0:
        return "a span's children outlast it"
    # The root span's own wrapper runs outside it, once cold after the run.
    tolerance_ns = 4 * max(trace["span_cost_ns"], 1) + ROOT_SLACK_NS
    reported_ns = sum(value for name, value in metrics.items() if name.endswith(".self_s")) / NS
    if abs(trace["wall_ns"] - reported_ns) > tolerance_ns:
        return (
            f"reported self times sum to {reported_ns:.0f} ns against {trace['wall_ns']} ns"
            f" traced wall (tolerance {tolerance_ns} ns)"
        )
    return None


def layer_metrics(trace: dict, surfaces: int) -> dict[str, float]:
    """Metric values of one traced CLI run of `surfaces` surfaces.

    Names the tracer installed but the run never called read 0; names it
    could not install are absent.
    """
    spans = trace["spans"]
    installed = set(trace["installed"])
    selfs = self_times_ns(spans)

    def enclosing(i: int, same) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if same(spans[parent][0]):
                return True
            parent = spans[parent][3]
        return False

    time_ns = defaultdict(int)
    calls = defaultdict(int)
    size = defaultdict(int)
    layer_self_ns = defaultdict(int)
    rss_kib = 0
    for i, (name, start, end, _, value, rss) in enumerate(spans):
        layer = layer_of(name)
        calls[name] += 1
        size[name] += value or 0
        layer_self_ns[layer] += selfs[i]
        if not enclosing(i, lambda other: other == name):
            time_ns[name] += end - start
        if layer == "borel" and not enclosing(i, lambda other: layer_of(other) == layer):
            rss_kib += rss

    out: dict[str, float] = {}
    for name in sorted(installed):
        if name == "report.run_pipeline":
            out["report.surface_s"] = time_ns[name] * NS / max(surfaces, 1)
        else:
            out[f"{name}_s"] = time_ns[name] * NS
        if layer_of(name) == "gf2":
            out[f"{name}_calls"] = calls[name]
            out[f"{name}_bits"] = size[name]
        if name in SIZE_METRICS:
            out[SIZE_METRICS[name]] = size[name]
    layers = {layer_of(name) for name in installed} | {layer_of(span[0]) for span in spans}
    for layer in sorted(layers):
        out[f"{layer}.self_s"] = layer_self_ns[layer] * NS
    if "borel" in layers:
        out["borel.rss_delta_mb"] = rss_kib * KIB_TO_MB
    out["trace.span_cost_s"] = len(spans) * trace["span_cost_ns"] * NS
    return out
