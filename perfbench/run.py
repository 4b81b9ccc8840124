#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload cli_mix|serve_mix \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds drdesync, drserve and the
probe helper from source into .bench_build/ (or $CARGO_TARGET_DIR), makes
the workload's inputs from --seed, measures for --seconds, checks every
output, and prints one JSON result as the last line of standard output.
With --trace 0 the result holds the end-to-end metrics, measured on the
real binaries with no tracing. With --trace 1 it holds the per-layer
metrics of a traced run and writes its spans as Chrome trace-event JSON
under .bench_build/traces/, which Perfetto opens directly.

Workloads, metrics and bounds are declared in BENCHMARK.json at the
checkout root; this program reports exactly that metric set.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

import cliwork  # noqa: E402
import layers  # noqa: E402
import servework  # noqa: E402
from common import Bench, BenchError, build, fresh_workdir  # noqa: E402

WORKLOADS = {
    "cli_mix": cliwork.cli_mix,
    "serve_mix": servework.serve_mix,
}


def host_line(root):
    mem = "?"
    try:
        with open("/proc/meminfo") as f:
            mem = "%.1f GiB" % (int(f.readline().split()[1]) / (1 << 20))
    except OSError:
        pass
    go = subprocess.run(["go", "version"], stdout=subprocess.PIPE, text=True).stdout.strip()
    return "host: %d CPUs, %s memory, %s, python %s; %d non-test Go lines" % (
        os.cpu_count(), mem, go, platform.python_version(), go_lines(root))


def go_lines(root):
    """Non-test Go lines of the program, outside the benchmark's own files."""
    n = 0
    for d, dirs, files in os.walk(root):
        dirs[:] = [x for x in dirs if not x.startswith(".") and not (d == root and x == "perfbench")]
        for name in files:
            if name.endswith(".go") and not name.endswith("_test.go"):
                with open(os.path.join(d, name), "rb") as f:
                    n += f.read().count(b"\n")
    return n


def declared(root, trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        want = declared(root, bench.trace)
        build(bench)
        print(host_line(root), flush=True)
        fresh_workdir(bench)
        res = WORKLOADS[args.workload](bench)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    got = set(res["metrics"])
    if got != want:
        print("perfbench: metric set differs from BENCHMARK.json: missing %s, extra %s"
              % (sorted(want - got), sorted(got - want)), file=sys.stderr)
        return 2
    for note in res["notes"]:
        print(note)
    for p in res["problems"]:
        print("CHECK FAILED: " + p)
    if bench.trace:
        print(layers.table(res["metrics"]))
        print("trace written to %s" % os.path.relpath(layers.trace_path(bench), root))
    else:
        for name in sorted(res["metrics"]):
            print("%-16s %14.6g %s" % (name, res["metrics"][name]["value"], res["metrics"][name]["unit"]))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
