"""The command-line workload: cli_mix drives the real drdesync binary, one
process at a time, in a closed loop."""

import os
import random
import re
import time

import layers
from common import (Calibration, geomean, median, median_gmean, metric, probe,
                    read_goldens, run_proc, sha256_file, tail)

# The known defect the benchmark keeps visible instead of skipping: the des
# preset fails export under the desync backend. Its op is counted as failed;
# a failure with any other message, or of any other op, is unexpected.
KNOWN_DEFECTS = {"des/desync": "G16: claimed successors [16], derived []"}

# cmd/drdesync's golden suite pins these ops' default-backend outputs.
GOLDEN_CASES = {
    "dlx/desync": "dlx",
    "fir/desync": "fir",
    "pipeline:depth=4,width=8,regions=6/desync": "pipeline",
}

# Every run makes at least two passes, so every op has a repeat (hit_gmean_s)
# and the tail percentile is fixed.
MIN_PASSES = 2

MG_CYCLE = re.compile(r"MG-CYCLE:\s+static period bound ([0-9.]+) ns")
TP_PERIOD = re.compile(r"two-phase generator: .* period ([0-9.]+) ns")


class Op:
    """One drdesync invocation, on a generator spec (gen) or on a flat
    Verilog input written at set-up (flat)."""

    def __init__(self, gen=None, flat=None, backend="desync", period=0.0, equiv=False,
                 faults=False, label=None):
        self.gen, self.flat, self.backend = gen, flat, backend
        self.period, self.equiv, self.faults = period, equiv, faults
        self.id = "%s/%s" % (label or gen or flat, backend)

    def ref_key(self):
        return self.gen or self.flat

    def argv(self, bench, out, sdc):
        argv = [bench.tool("drdesync")]
        argv += ["-gen", self.gen] if self.gen else ["-in", bench.path(self.flat + ".v")]
        argv += ["-backend", self.backend, "-out", out, "-sdc", sdc]
        if self.period:
            argv += ["-period", repr(self.period)]
        if self.equiv:
            argv.append("-equiv")
        if self.faults:
            argv.append("-faults")
        return argv

    def probe_op(self, bench):
        op = {"id": self.id, "lib": "HS", "backend": self.backend, "period": self.period,
              "equiv": self.equiv, "faults": self.faults}
        if self.gen:
            op["gen"] = self.gen
        else:
            op["in"] = bench.path(self.flat + ".v")
        return op


def cli_mix_ops(seed):
    """The cli_mix op list and the flat inputs it reads."""
    rng = random.Random(seed)
    ops = []
    for gen, period in (("dlx", 4.65), ("fir", 6.0), ("pipeline:depth=4,width=8,regions=6", 0.0),
                        ("arm", 0.0), ("riscv", 0.0), ("des", 0.0),
                        ("pipeline:depth=64,width=64,regions=64", 0.0)):
        for backend in ("desync", "twophase"):
            ops.append(Op(gen=gen, backend=backend, period=period))
    ops.append(Op(gen="dlx", period=4.65, equiv=True, faults=True, label="dlx+equiv+faults"))
    # Flat post-synthesis inputs: no region tags, so automatic grouping
    # splits them into 512 and 1024 regions -- the paper's own use case.
    flats = {}
    for depth in (16, 32):
        name = "flat%d" % depth
        flats[name] = "pipeline:depth=%d,width=32,seed=%d" % (depth, rng.randrange(1, 1 << 30))
        ops.append(Op(flat=name))
    return ops, flats, rng


def setup(bench, ops, flats, reps):
    """Writes the flat inputs and measures every synchronous input's area,
    reps times; returns the set-up times and the area references."""
    request = {
        "write": [{"spec": spec, "path": bench.path(name + ".v")} for name, spec in sorted(flats.items())],
        "refs": [],
    }
    seen = set()
    for op in ops:
        key = op.ref_key()
        if key in seen:
            continue
        seen.add(key)
        ref = {"key": key, "lib": "HS"}
        if op.gen:
            ref["spec"] = op.gen
        else:
            ref["file"] = bench.path(op.flat + ".v")
        request["refs"].append(ref)
    times, refs = [], None
    for i in range(reps):
        t0 = time.perf_counter()
        refs, _ = probe(bench, "prepare", request, "prepare%d" % i)
        times.append(time.perf_counter() - t0)
    return times, refs


class Record:
    """One executed op."""

    def __init__(self, op, pas, proc):
        self.op, self.pas, self.proc = op, pas, proc
        self.ok = proc.rc == 0
        self.netlist = self.sdc = None
        self.cycle = None


def run_op(bench, op, pas, n):
    out, sdc = bench.path("out.v"), bench.path("out.sdc")
    for p in (out, sdc):
        if os.path.exists(p):
            os.remove(p)
    rec = Record(op, pas, run_proc(op.argv(bench, out, sdc), bench.work, "op%d" % n))
    if rec.ok:
        rec.netlist, rec.sdc = sha256_file(out), sha256_file(sdc)
        kept = bench.path("netlist-%s.v" % rec.netlist)
        if not os.path.exists(kept):
            os.rename(out, kept)
        m = (MG_CYCLE if op.backend == "desync" else TP_PERIOD).search(rec.proc.out)
        rec.cycle = float(m.group(1)) if m else None
    return rec


def run_passes(bench, ops, rng, cal):
    """Runs whole passes over the op list, each in a fresh seeded order: at
    least MIN_PASSES, then another while half the mean pass so far still fits
    in the measuring time, so a run ends within half a pass of --seconds.
    The host's speed is sampled before the first op and after every op."""
    records, n, pas = [], 0, 0
    cal.sample()
    t0 = time.perf_counter()
    while pas < MIN_PASSES or (time.perf_counter() - t0) * (pas + 0.5) / pas <= bench.seconds:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            records.append(run_op(bench, op, pas, n))
            cal.sample()
            n += 1
        pas += 1
    return records


def check(bench, records, refs):
    """Checks every op's outputs; returns (problems, area ratios, cycles)
    over the distinct successful ops."""
    problems = []
    goldens = read_goldens(bench, "cmd/drdesync/testdata/golden_digests.txt")
    first = {}
    for r in records:
        if not r.ok:
            want = KNOWN_DEFECTS.get(r.op.id)
            if want is None or want not in r.proc.err:
                problems.append("%s failed unexpectedly (exit %d): %s" % (r.op.id, r.proc.rc, r.proc.err.strip()[-300:]))
            continue
        case = GOLDEN_CASES.get(r.op.id)
        if case:
            for art, digest in (("netlist.v", r.netlist), ("constraints.sdc", r.sdc)):
                if goldens[(case, art)] != digest:
                    problems.append("%s %s digest %s differs from the golden %s" % (r.op.id, art, digest, goldens[(case, art)]))
        if r.cycle is None:
            problems.append("%s printed no cycle figure" % r.op.id)
        prev = first.setdefault(r.op.id, r)
        if (prev.netlist, prev.sdc) != (r.netlist, r.sdc):
            problems.append("%s output differs between passes" % r.op.id)
    files = [{"key": d, "file": bench.path("netlist-%s.v" % d), "lib": "HS"}
             for d in sorted({r.netlist for r in first.values()})]
    checked, _ = probe(bench, "check", {"files": files}, "check")
    ratios, cycles = [], []
    for op_id, r in sorted(first.items()):
        c = checked[r.netlist]
        if not c["ok"]:
            problems.append("%s output does not re-read clean: %s" % (op_id, c["err"]))
            continue
        ratios.append(c["area"] / refs[r.op.ref_key()]["area"])
        if r.cycle:
            cycles.append(r.cycle)
    return problems, ratios, cycles


def measure(bench, ops, flats, rng):
    setup_times, refs = setup(bench, ops, flats, reps=9)
    cal = Calibration(bench)
    records = run_passes(bench, ops, rng, cal)
    problems, ratios, cycles = check(bench, records, refs)
    k = cal.scale()
    lat = [k * r.proc.wall for r in records]
    ok = [r for r in records if r.ok]
    tail_v, tail_label = tail(lat, MIN_PASSES * len(ops))
    passes = sorted({r.pas for r in records})
    peak = median([max(r.proc.rss_mb for r in records if r.pas == p) for p in passes])
    metrics = {
        "setup_s": metric(k * median(setup_times), "s"),
        "op_gmean_s": metric(median_gmean((r.op.id, k * r.proc.wall) for r in records), "s"),
        "op_tail_s": metric(tail_v, "s"),
        "ops_per_s": metric(len(ok) / sum(lat), "1/s"),
        "hit_gmean_s": metric(median_gmean((r.op.id, k * r.proc.wall) for r in records if r.pas > 0), "s"),
        "peak_rss_mb": metric(peak, "MB"),
        "ok_frac": metric(len(ok) / len(records), "ratio"),
        "qor_area_ratio": metric(geomean(ratios), "ratio"),
        "qor_cycle_ns": metric(geomean(cycles), "ns/cycle"),
    }
    notes = ["%d ops in %d passes; op_tail_s is the %s; hit_gmean_s is over the %d ops repeating an earlier pass"
             % (len(records), len(passes), tail_label, sum(1 for r in records if r.pas > 0)),
             cal.note(),
             "unscaled: op_gmean_s %.4f s, ops_per_s %.4f 1/s" % (
                 median_gmean((r.op.id, r.proc.wall) for r in records), len(ok) / sum(r.proc.wall for r in records))]
    return {"correct": not problems, "attempted": len(records), "failed": len(records) - len(ok),
            "metrics": metrics, "problems": problems, "notes": notes}


def traced(bench, ops, flats, rng):
    """The traced run: one untraced pass through drdesync, then the same ops
    in-process through the probe with a span around every layer call."""
    _, refs = setup(bench, ops, flats, reps=1)
    order = list(ops)
    rng.shuffle(order)
    cal = Calibration(bench)
    cal.sample(reps=5)
    records = [run_op(bench, op, 0, i) for i, op in enumerate(order)]
    problems, _, _ = check(bench, records, refs)
    os.makedirs(bench.path("traced"))
    ans, _ = probe(bench, "trace", {"ops": [op.probe_op(bench) for op in order],
                                    "dir": bench.path("traced"), "trace": layers.trace_path(bench)}, "trace")
    problems += layers.trace_problems(ans, records)
    metrics = layers.from_trace(ans)
    n = len(records)
    metrics["trace.untraced_op_wall_s"] = metric(sum(r.proc.wall for r in records) / n, "s")
    metrics["proc.cpu_s"] = metric(sum(r.proc.cpu_s for r in records) / n, "s")
    metrics["host.calibration_s"] = metric(median(cal.samples), "s")
    return {"correct": not problems, "attempted": n, "failed": sum(1 for r in records if not r.ok),
            "metrics": layers.complete(metrics), "problems": problems, "notes": []}


def cli_mix(bench):
    ops, flats, rng = cli_mix_ops(bench.seed)
    if bench.trace:
        return traced(bench, ops, flats, rng)
    return measure(bench, ops, flats, rng)
