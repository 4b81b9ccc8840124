"""Shared plumbing of the benchmark: building the binaries, running child
processes with their resource usage, the probe helper, and statistics."""

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import time


class BenchError(Exception):
    """A condition that makes the run meaningless; run.py exits non-zero."""


class Bench:
    """One benchmark run: where the checkout is, where its build outputs
    and scratch files go, and the run's arguments."""

    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.build = os.path.join(root, build)
        self.bin = os.path.join(self.build, "bin")
        self.work = os.path.join(self.build, "work", "%s-%d-%d" % (workload, seed, os.getpid()))

    def tool(self, name):
        return os.path.join(self.bin, name)

    def path(self, *parts):
        return os.path.join(self.work, *parts)


def go_env(bench):
    """Keeps every file the go command writes (build cache, module cache,
    telemetry, temporaries) inside the checkout's build directory."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache")):
        env[key] = os.path.join(bench.build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOWORK="off", GOTOOLCHAIN="local", GOFLAGS="", GOTELEMETRY="off")
    return env


def build(bench):
    """Builds drdesync, drserve and the probe from the checkout's sources.
    The go build cache makes every build after the first one cheap."""
    for marker in ("go.mod", "cmd/drdesync", "cmd/drserve"):
        if not os.path.exists(os.path.join(bench.root, marker)):
            raise BenchError("%s is not a checkout of the repository (no %s)" % (bench.root, marker))
    env = go_env(bench)
    steps = [
        (bench.root, ["go", "build", "-o", bench.bin + "/", "./cmd/drdesync", "./cmd/drserve"]),
        (os.path.join(bench.root, "perfbench"), ["go", "build", "-o", bench.tool("probe"), "./probe"]),
    ]
    for cwd, argv in steps:
        p = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            raise BenchError("build failed: %s\n%s" % (" ".join(argv), p.stdout))


def fresh_workdir(bench):
    shutil.rmtree(bench.work, ignore_errors=True)
    os.makedirs(bench.work)


class Proc:
    """The outcome of one child process."""

    def __init__(self, wall, rc, rss_mb, cpu_s, out, err):
        self.wall, self.rc, self.rss_mb, self.cpu_s = wall, rc, rss_mb, cpu_s
        self.out, self.err = out, err


def run_proc(argv, cwd, tag):
    """Runs argv to completion and times it from spawn to reap. Standard
    output and error go to files named after tag, so a chatty child never
    blocks on a pipe. Resource usage comes from wait4 on this child alone."""
    out_path = os.path.join(cwd, tag + ".out")
    err_path = os.path.join(cwd, tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as f:
        out_text = f.read()
    with open(err_path, errors="replace") as f:
        err_text = f.read()
    return Proc(wall, p.returncode, ru.ru_maxrss / 1024.0, ru.ru_utime + ru.ru_stime, out_text, err_text)


def probe(bench, cmd, request, tag):
    """Runs one probe subcommand on a JSON request and returns its answer
    plus the process record."""
    req_path = bench.path(tag + ".req.json")
    ans_path = bench.path(tag + ".ans.json")
    with open(req_path, "w") as f:
        json.dump(request, f)
    p = run_proc([bench.tool("probe"), cmd, req_path, ans_path], bench.work, tag)
    if p.rc != 0:
        raise BenchError("probe %s failed (exit %d): %s" % (cmd, p.rc, p.err.strip()))
    with open(ans_path) as f:
        return json.load(f), p


# The calibration kernel's time per repetition on the reference host (see
# README.md), rounded; scaled times read close to wall times there.
CAL_REF_S = 0.07


class Calibration:
    """The host's speed through one run, sampled with probe calibrate.

    The shared host this benchmark runs on changes speed by up to 1.7x over
    minutes, as neighbouring machines load it, and wall and CPU time both
    follow. The end-to-end times are therefore reported in reference
    seconds: a wall time multiplied by scale(), the reference kernel time
    over this run's median kernel time. Samples are taken between ops all
    through the run, so they see the same host as the ops. The kernel uses
    none of the program's code, so a change to the program moves a scaled
    time by the same share as its wall time."""

    def __init__(self, bench):
        self.bench = bench
        self.samples = []

    def sample(self, reps=1):
        ans, _ = probe(self.bench, "calibrate", {"reps": reps}, "cal")
        self.samples += ans["seconds"]

    def scale(self):
        return CAL_REF_S / median(self.samples)

    def note(self):
        return "host calibration: median %.4f s per kernel repetition over %d samples, so wall times are scaled by %.4f" % (
            median(self.samples), len(self.samples), self.scale())


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_bytes(b):
    return hashlib.sha256(b).hexdigest()


def read_goldens(bench, rel):
    """Parses a committed golden digest table: "case artifact digest" lines."""
    table = {}
    with open(os.path.join(bench.root, rel)) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                case, art, digest = line.split()
                table[(case, art)] = digest
    return table


def median(xs):
    return statistics.median(xs)


def quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile: an average of all order
    statistics weighted by a beta density centred on p. The sample quantile
    of a mix of ops of different sizes rests on the one or two ops that land
    at p, and jumps whenever host noise reorders them; this estimate moves
    smoothly with every sample near p."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    grid = 200 * n
    w = [0.0] * n
    for k in range(grid):
        x = (k + 0.5) / grid
        w[int(x * n)] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
    return sum(wi * xi for wi, xi in zip(w, xs)) / sum(w)


def tail(xs, n_min):
    """The tail latency and its label: the highest whole percentile with at
    least ten samples beyond it in the n_min samples every run of the
    workload takes, so that the percentile does not change with the number
    of samples a run happens to take; below twenty samples, the maximum."""
    if n_min < 20:
        return max(xs), "max of %d" % len(xs)
    p = math.floor(100 * (1 - 10 / n_min))
    return quantile(xs, p / 100), "p%d of %d" % (p, len(xs))


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def median_gmean(samples):
    """The typical latency of a mix of ops of very different sizes: the
    geometric mean, over the distinct ops, of each op's median latency.
    Every op weighs the same whatever its size, and every sample counts,
    where a median over the mix rests on whichever ops land in the middle
    and jumps when host noise reorders them."""
    by_op = {}
    for op, latency in samples:
        by_op.setdefault(op, []).append(latency)
    return geomean([median(v) for v in by_op.values()])


def metric(value, unit):
    return {"value": value, "unit": unit}
