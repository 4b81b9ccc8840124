"""Per-layer metrics of the traced run (--trace 1): their names, how they
are derived from the probe's spans and counters, and the self-time table.

Layer times are self times summed over the traced ops: a span's duration
minus the part its child spans cover. The core stages are spans opened and
closed by the flow's Progress callback, so a stage's self time excludes the
StageCheck lint inside it but includes the stage-boundary Validate."""

import os

from common import metric

STAGES = ("import", "clean", "group", "substitute", "size", "generate", "export")
BACKEND_STAGES = ("substitute", "size", "generate")


def _span_metrics():
    spans = [(name, [name]) for name in (
        "designs.build", "verilog.read", "verilog.write", "lint.pre", "lint.stagecheck", "lint.post")]
    for stage in STAGES:
        if stage in BACKEND_STAGES:
            spans.append(("core." + stage, ["core.desync." + stage, "core.twophase." + stage]))
        else:
            spans.append(("core." + stage, ["core." + stage]))
    for backend in ("desync", "twophase"):
        for stage in BACKEND_STAGES:
            name = "core.%s.%s" % (backend, stage)
            spans.append((name, [name]))
    spans += [(name, [name]) for name in (
        "sta.build", "sta.region_delays", "netlist.validate", "netlist.hash", "ctrlnet.derive",
        "mga.analyze", "equiv.explore", "faults.campaign", "sdc.write")]
    return spans


SPAN_METRICS = _span_metrics()
COUNT_METRICS = [("verilog.bytes", "bytes"), ("lint.findings", "count"), ("core.regions", "count"),
                 ("core.ffs", "count"), ("core.insts_out", "count"), ("core.delay_cells", "count"),
                 ("mga.places", "count"), ("equiv.markings", "count"), ("faults.injected", "count")]
# Measured only by serve_mix, from outside the drserve process.
FLOWSERV = ([("flowserv.submit_s", "s"), ("flowserv.queue_wait_s", "s"), ("flowserv.run_s", "s")]
            + [("flowserv.stage.%s_s" % s, "s") for s in STAGES]
            + [("flowserv.hit_frac", "ratio"), ("flowserv.attached", "count"),
               ("flowserv.rejected", "count"), ("flowserv.rss_mb_per_job", "MB/job")])


def trace_path(bench):
    d = os.path.join(bench.build, "traces")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, "%s-seed%d.json" % (bench.workload, bench.seed))


def trace_problems(ans, records):
    """The traced ops must succeed and fail exactly where the untraced ones do."""
    want = {r.op.id: r.ok for r in records}
    return ["traced op %s: %s (untraced ok=%s)" % (o["id"], o.get("err", "ok"), want.get(o["id"]))
            for o in ans["ops"] if o["ok"] != want.get(o["id"])]


def from_trace(ans):
    self_t, counts = ans["self"], ans["counts"]
    n = len(ans["ops"])
    m = {}
    for name, spans in SPAN_METRICS:
        m[name + "_s"] = metric(sum(self_t.get(s, 0.0) for s in spans), "s")
    for name, unit in COUNT_METRICS:
        m[name] = metric(counts.get(name, 0), unit)
    injected = counts.get("faults.injected", 0)
    m["faults.detected_frac"] = metric(counts.get("faults.detected", 0) / injected if injected else 0.0, "ratio")
    m["runtime.alloc_mb"] = metric(counts.get("runtime.alloc_mb", 0.0) / n, "MB")
    m["runtime.gc_cycles"] = metric(counts.get("runtime.gc_cycles", 0) / n, "count")
    m["runtime.gc_cpu_s"] = metric(counts.get("runtime.gc_cpu_s", 0.0) / n, "s")
    m["trace.op_wall_s"] = metric(sum(o["wall_s"] for o in ans["ops"]) / n, "s")
    m["trace.uncovered_s"] = metric(self_t.get("op", 0.0) / n, "s")
    return m


def complete(metrics):
    """Fills the layers a workload does not exercise with zeros, so every
    traced run reports the same metric set."""
    for name, unit in FLOWSERV:
        metrics.setdefault(name, metric(0.0, unit))
    return metrics


def table(metrics):
    """The per-layer table printed before the result line."""
    lines = ["%-34s %14s  %s" % ("per-layer metric", "value", "unit")]
    for name in sorted(metrics):
        v = metrics[name]
        lines.append("%-34s %14.6g  %s" % (name, v["value"], v["unit"]))
    return "\n".join(lines)
