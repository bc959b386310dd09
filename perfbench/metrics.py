"""Metric catalog and the arithmetic from worker results to metrics.

The names, units and directions here are the ones ``BENCHMARK.json``
declares (a self-test keeps the two in step).
"""

from __future__ import annotations

import statistics

from tracing import layer_self_ns, span_names

#: name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Derived counter metrics: name -> (unit, better).
_COUNTER_METRICS: dict[str, tuple[str, str]] = {
    "ddr.bus.commands_issued": ("count", "lower"),
    "ddr.bus.collisions": ("count", "lower"),
    "nvmc.agent.windfall_ratio": ("ratio", "higher"),
    "nvmc.dma.windows_per_op": ("ratio", "lower"),
    "nvmc.dma.partial_transfers": ("count", "lower"),
    "kernel.nvdc.hit_rate": ("ratio", "higher"),
    "kernel.nvdc.evictions": ("count", "lower"),
    "kernel.nvdc.cp_retries": ("count", "lower"),
    "nand.ftl.gc_invocations": ("count", "lower"),
    "nand.ftl.erases": ("count", "lower"),
    "nand.ecc.bits_corrected": ("count", "lower"),
    "cpu.cache.hit_rate": ("ratio", "higher"),
    "sim.trace.records_emitted": ("count", "lower"),
    "sim.trace.peak_retained": ("count", "lower"),
    "sim.snapshot.blob_bytes": ("bytes", "lower"),
    "fleet.qos.latency_samples_retained": ("count", "lower"),
    "sim_p50_us": ("us", "lower"),
    "sim_p99_us": ("us", "lower"),
    "sim_latency_samples": ("count", "higher"),
    "sim_device_mib_s": ("MiB/s", "higher"),
    "sim_waf": ("ratio", "lower"),
    "failed_ppm": ("ppm", "lower"),
    "trace_overhead_x": ("ratio", "lower"),
}


def per_layer_catalog() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: span calls and self time, then counters."""
    out: dict[str, tuple[str, str]] = {}
    for name in span_names():
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update(_COUNTER_METRICS)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Seconds the reference loop (``worker.reference_s``) takes, at its
#: fastest, on one idle vCPU of the 2-vCPU VM the bounds were set on.
REFERENCE_S = 0.004


def host_s(seconds: float, refs: list[float]) -> float:
    """``seconds`` rescaled to a host on which the reference loop takes
    :data:`REFERENCE_S`, using the fastest reference time of the run.

    Other tenants of a shared host slow the whole process, by up to 2x
    for seconds at a time; they slow the reference loop beside it by
    about the same factor, which this ratio cancels.
    """
    return seconds * REFERENCE_S / min(refs)


def end_to_end(main_run: dict, setups: list[dict]):
    """Metrics of an untraced run plus its set-up-only samples."""
    # The fastest repetition over the fastest reference loop: both
    # ends meet the same quietest moments of the host.
    wall = host_s(min(main_run["walls"]), main_run["refs"])
    # The fastest set-up, not rescaled: set-up is mostly imports, which
    # the host's other tenants slow far less than the reference loop.
    setup = min(run["setup_s"] for run in [main_run] + setups)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "ops_per_s": (main_run["ops"] / wall, "1/s"),
        "peak_rss_mb": (main_run["peak_rss_mb"], "MB"),
    }
    checks = {
        "workload_gate": (True, f"{len(main_run['walls'])} repetitions "
                                "passed and agree on digest and counters"),
        "no_failed_ops": (main_run["failed"] == 0,
                          f"{main_run['failed']} of "
                          f"{main_run['attempted']} failed"),
    }
    return metrics, checks


def per_layer(main_run: dict, traced: dict):
    """Per-layer metrics of a traced run, checked against an untraced
    run of the same workload and seed."""
    work = main_run["counters_rep"]
    sim = main_run["sim"]
    spans = traced["spans"]
    values: dict[str, float] = {}
    for name in span_names():
        calls, self_ns = spans.get(name, (0, 0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_ns / 1e9
    values.update({
        "ddr.bus.commands_issued": work["ddr.bus.commands_issued"],
        "ddr.bus.collisions": work["ddr.bus.collisions"],
        "nvmc.agent.windfall_ratio": _ratio(
            work["nvmc.agent.windfalls"], work["nvmc.agent.windows_seen"]),
        "nvmc.dma.windows_per_op": _ratio(
            work["nvmc.dma.windows_used"], work["nvmc.dma.transfers"]),
        "nvmc.dma.partial_transfers": work["nvmc.dma.partial_transfers"],
        "kernel.nvdc.hit_rate": _ratio(
            work["kernel.nvdc.hits"],
            work["kernel.nvdc.hits"] + work["kernel.nvdc.misses"]),
        "kernel.nvdc.evictions": work["kernel.nvdc.evictions"],
        "kernel.nvdc.cp_retries": work["kernel.nvdc.cp_retries"],
        "nand.ftl.gc_invocations": work["nand.ftl.gc_invocations"],
        "nand.ftl.erases": work["nand.ftl.erases"],
        "nand.ecc.bits_corrected": work["nand.ecc.bits_corrected"],
        "cpu.cache.hit_rate": _ratio(
            work["cpu.cache.hits"],
            work["cpu.cache.hits"] + work["cpu.cache.misses"]),
        "sim.trace.records_emitted": work["sim.trace.records_emitted"],
        "sim.trace.peak_retained": work["sim.trace.peak_retained"],
        "sim.snapshot.blob_bytes": traced["blob_bytes"],
        "fleet.qos.latency_samples_retained":
            sim.get("fleet.qos.latency_samples_retained", 0),
        "sim_p50_us": sim.get("sim_p50_us", 0.0),
        "sim_p99_us": sim.get("sim_p99_us", 0.0),
        "sim_latency_samples": sim.get("sim_latency_samples", 0),
        "sim_device_mib_s": sim.get("sim_device_mib_s", 0.0),
        "sim_waf": _ratio(
            work["nand.ftl.host_programs"] + work["nand.ftl.gc_programs"],
            work["nand.ftl.host_programs"]) or 1.0,
        "failed_ppm": _ratio(main_run["failed"] * 1e6,
                             main_run["attempted"]),
        "trace_overhead_x": traced["walls"][0]
            / statistics.median(main_run["walls"]),
    })
    catalog = per_layer_catalog()
    metrics = {name: (values[name], catalog[name][0]) for name in catalog}

    layers = layer_self_ns(spans)
    checks = {
        "traced_digest_matches": (
            traced["digest"] == main_run["digest"],
            "traced and untraced runs produced the same output"),
        "traced_counters_match": (
            traced["counters"] == main_run["counters"],
            "traced and untraced runs did the same work"),
        "no_failed_ops": (main_run["failed"] == 0,
                          f"{main_run['failed']} of "
                          f"{main_run['attempted']} failed"),
    }
    print("self time by layer (set-up + one repetition, traced):")
    for layer in sorted(layers, key=layers.get, reverse=True):
        print(f"  {layer:18s} {layers[layer] / 1e9:9.3f} s")
    return metrics, checks
