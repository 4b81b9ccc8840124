"""The serve_mix workload: one drserve process per round, driven by two
closed-loop HTTP clients over a seeded job plan."""

import http.client
import json
import os
import random
import re
import signal
import subprocess
import threading
import time
import types

import layers
from common import (BenchError, Calibration, geomean, median, median_gmean,
                    metric, probe, read_goldens, sha256_bytes, tail)

# internal/flowserv's golden suite: request, and the artifacts it pins.
GOLDENS = [
    ("dlx", {"gen": "dlx", "options": {"equiv": True}},
     ["netlist.v", "constraints.sdc", "lint.json", "static.json", "equiv.json"]),
    ("arm", {"gen": "arm", "options": {}}, ["netlist.v", "constraints.sdc", "lint.json", "static.json"]),
    ("fir", {"gen": "fir", "options": {}}, ["netlist.v", "constraints.sdc", "lint.json", "static.json"]),
    ("pipeline", {"gen": "pipeline:depth=4,width=8,regions=6", "options": {}},
     ["netlist.v", "constraints.sdc", "lint.json", "static.json"]),
]
# Case-study netlists uploaded as Verilog, written at set-up.
UPLOADS = {"dlx": "dlx", "fir": "fir"}
PHI1 = re.compile(r'create_clock -name "Phi1" -period ([0-9.eE+-]+)')
LISTEN = re.compile(r"listening on (\S+):(\d+)")
MIN_ROUNDS = 4


class Item:
    """One planned submission. key names the distinct request; a repeat and
    the two halves of a pair share their original's key."""

    def __init__(self, key, req, golden=None, upload=None, pair=False, repeat=False):
        self.key, self.req, self.golden, self.upload = key, req, golden, upload
        self.pair, self.repeat = pair, repeat

    def backend(self):
        return self.req["options"].get("backend", "desync")

    def lib(self):
        return "LL" if self.req.get("gen") == "arm" else "HS"


def plan(seed):
    """The distinct requests of the workload. The composition is the same at
    every seed, so the cost mix is too; the seed picks the netlists. Thirty
    fresh pipeline specs cover a grid of depth, width and region count, and
    five of them run the twophase backend; fifteen of them are submitted
    twice. The flowserv goldens and three case-study uploads complete the
    set."""
    rng = random.Random(seed)
    items = []
    for i in range(30):
        spec = "pipeline:depth=%d,width=%d,regions=%d,seed=%d" % (
            (8, 12, 16, 20, 24)[i % 5], (16, 32, 48)[(i // 5) % 3], 4 + (5 * i) % 9, rng.randrange(1, 1 << 30))
        opts = {"backend": "twophase"} if i % 6 == 5 else {}
        items.append(Item("fresh%d" % i, {"gen": spec, "options": opts}, repeat=i % 2 == 0))
    for case, req, _ in GOLDENS:
        items.append(Item("golden-" + case, req, golden=case))
    for key, backend in (("dlx", "desync"), ("fir", "desync"), ("dlx", "twophase")):
        opts = {"backend": backend} if backend != "desync" else {}
        items.append(Item("upload-%s-%s" % (key, backend), {"options": opts}, upload=key))
    for k in range(3):
        spec = "pipeline:depth=24,width=48,regions=8,seed=%d" % rng.randrange(1, 1 << 30)
        items.append(Item("pair%d" % k, {"gen": spec, "options": {}}, pair=True))
    return items


def arrange(items, rng):
    """One round's two client lists, in an order drawn from rng. A repeated
    request comes back later on the same client, after its first run has
    finished, so it is a cache hit; both clients submit each pair at the
    same list position, after a barrier, so one of them attaches."""
    single = [it for it in items if not it.pair]
    rng.shuffle(single)
    clients = [single[0::2], single[1::2]]
    for c in clients:
        for orig in [it for it in c if it.repeat]:
            c.insert(rng.randrange(c.index(orig) + 1, len(c) + 1), Item(orig.key, orig.req))
    n = min(len(c) for c in clients)
    for k, pair in enumerate(it for it in items if it.pair):
        for c in clients:
            c.insert((k + 1) * n // 4, pair)
    return clients


class Job:
    """The client's record of one submission."""

    def __init__(self, item):
        self.item = item
        self.status = None
        self.kind = "failed"  # fresh | hit | attached | rejected | failed
        self.submit = self.latency = None
        self.events = []  # (arrival time from POST start, event)
        self.state = None
        self.error = ""
        self.arts = {}


def client(host, port, items, barrier, jobs, errors):
    conn = http.client.HTTPConnection(host, port, timeout=300)
    try:
        for it in items:
            if it.pair:
                barrier.wait(timeout=300)
            job = Job(it)
            jobs.append(job)
            t0 = time.perf_counter()
            conn.request("POST", "/jobs", json.dumps(it.req).encode(), {"Content-Type": "application/json"})
            resp = conn.getresponse()
            body = resp.read()
            job.submit = time.perf_counter() - t0
            if resp.status == 503:
                job.kind = "rejected"
                continue
            if resp.status not in (200, 202):
                job.error = "POST status %d: %s" % (resp.status, body[:200])
                continue
            st = json.loads(body)
            job.status = st
            job.kind = "hit" if st["cached"] else "attached" if st.get("attached") else "fresh"
            conn.request("GET", "/jobs/%s/events" % st["id"])
            resp = conn.getresponse()
            while True:
                line = resp.readline()
                if not line:
                    break
                job.events.append((time.perf_counter() - t0, json.loads(line)))
            job.latency = job.events[-1][0]
            job.state = job.events[-1][1]["kind"]
    except Exception as e:  # noqa: BLE001 -- reported, and the round fails
        errors.append("client: %r" % e)
        if barrier is not None:
            barrier.abort()
    finally:
        conn.close()


def rss_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise BenchError("no VmRSS for drserve")


def start_server(bench):
    with open(bench.path("drserve.err"), "ab") as err:
        p = subprocess.Popen([bench.tool("drserve"), "-addr", "127.0.0.1:0"], cwd=bench.work,
                             stdout=subprocess.PIPE, stderr=err, text=True)
    line = p.stdout.readline()
    m = LISTEN.search(line)
    if not m:
        p.kill()
        p.wait()
        raise BenchError("drserve did not report its address: %r" % line)
    return p, m.group(1), int(m.group(2))


def stop_server(p):
    """Drains drserve with SIGTERM and reaps it; returns (exit code, peak
    RSS in MB, CPU seconds)."""
    p.send_signal(signal.SIGTERM)
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        p.returncode = 0
        p.stdout.close()
    return os.waitstatus_to_exitcode(status), ru.ru_maxrss / 1024.0, ru.ru_utime + ru.ru_stime


def fetch_artifacts(host, port, jobs):
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        for job in jobs:
            if job.status is None:
                continue
            conn.request("GET", "/jobs/%s" % job.status["id"])
            st = json.loads(conn.getresponse().read())
            job.status = st
            for name in st.get("artifacts") or []:
                conn.request("GET", "/jobs/%s/artifacts/%s" % (st["id"], name))
                job.arts[name] = conn.getresponse().read()
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def quiet_hits(host, port, jobs):
    """Submits every request that ran fresh in the round once more, one at a
    time from one client, with the server otherwise idle. Each is a cache
    hit, timed without the load of the mixed phase, whose hits wait behind
    whatever the two clients' fresh jobs are computing."""
    items, seen = [], set()
    for job in jobs:
        if job.kind == "fresh" and job.state == "done" and job.item.key not in seen:
            seen.add(job.item.key)
            items.append(Item(job.item.key, job.item.req))
    quiet, errors = [], []
    client(host, port, items, None, quiet, errors)
    if errors:
        raise BenchError("serve_mix quiet hits: " + "; ".join(errors))
    return quiet


def run_round(bench, clients, prepare_req, uploads):
    """Set-up (inputs, references, server start), the two clients, then the
    artifact fetch and drain. Returns the round's record."""
    r = types.SimpleNamespace()
    t0 = time.perf_counter()
    r.refs, _ = probe(bench, "prepare", prepare_req, "prepare")
    proc, host, port = start_server(bench)
    r.setup = time.perf_counter() - t0
    try:
        for c in clients:
            for it in c:
                if it.upload:
                    if it.upload not in uploads:
                        with open(bench.path(it.upload + ".v")) as f:
                            uploads[it.upload] = f.read()
                    it.req["verilog"] = uploads[it.upload]
        barrier = threading.Barrier(2)
        jobs, errors = [[], []], []
        start_rss = rss_kb(proc.pid)
        t1 = time.perf_counter()
        threads = [threading.Thread(target=client, args=(host, port, clients[i], barrier, jobs[i], errors))
                   for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        r.wall = time.perf_counter() - t1
        if errors:
            raise BenchError("serve_mix round: " + "; ".join(errors))
        r.jobs = jobs[0] + jobs[1]
        # drserve keeps every finished job; its growth per job is read from
        # /proc before the artifact fetch adds buffers of its own.
        r.rss_per_job = (rss_kb(proc.pid) - start_rss) / 1024.0 / len(r.jobs)
        r.quiet = quiet_hits(host, port, r.jobs)
        r.stats = fetch_artifacts(host, port, r.jobs + r.quiet)
    finally:
        rc, r.peak_rss, r.cpu = stop_server(proc)
    if rc != 0:
        raise BenchError("drserve exited %d after drain" % rc)
    return r


def prepare_request(bench, items):
    req = {"write": [{"spec": gen, "path": bench.path(name + ".v")} for name, gen in sorted(UPLOADS.items())],
           "refs": []}
    for it in items:
        ref = {"key": it.key, "lib": it.lib()}
        if it.upload:
            ref["file"] = bench.path(it.upload + ".v")
        else:
            ref["spec"] = it.req["gen"]
        req["refs"].append(ref)
    return req


def check_round(bench, r, goldens, first, problems):
    """Output checks of one round. first maps a request key to the artifact
    digests of its first successful run, across rounds."""
    fresh_by_cache_key = {}
    for job in r.jobs:
        if job.kind == "fresh" and job.state == "done":
            fresh_by_cache_key[job.status["cacheKey"]] = job
    for job in r.quiet:
        if job.kind != "hit":
            problems.append("%s: quiet resubmission was %s, not a cache hit" % (job.item.key, job.kind))
    for job in r.jobs + r.quiet:
        it = job.item
        if job.state != "done":
            # A refused submission counts as failed; it is not a wrong output.
            if job.kind != "rejected":
                problems.append("%s: %s job ended %s: %s" % (
                    it.key, job.kind, job.state, job.error or (job.status or {}).get("error", "")))
            continue
        digests = {name: sha256_bytes(b) for name, b in job.arts.items() if name != "result.json"}
        if it.golden:
            for _, _, arts in [g for g in GOLDENS if g[0] == it.golden]:
                for art in arts:
                    if digests.get(art) != goldens[(it.golden, art)]:
                        problems.append("%s %s digest differs from the golden" % (it.key, art))
        if job.kind in ("hit", "attached"):
            src = fresh_by_cache_key.get(job.status["cacheKey"])
            if src is not None and src.arts != job.arts:
                problems.append("%s: %s artifacts differ from the fresh run's" % (it.key, job.kind))
        prev = first.setdefault(it.key, (digests, job))
        if prev[0] != digests:
            problems.append("%s: artifacts differ between runs" % it.key)
        path = bench.path("netlist-%s.v" % digests["netlist.v"])
        if not os.path.exists(path):
            with open(path, "wb") as f:
                f.write(job.arts["netlist.v"])


def cycle_of(job):
    if job.item.backend() == "desync":
        return json.loads(job.arts["static.json"])["period_ns"]
    m = PHI1.search(job.arts["constraints.sdc"].decode())
    return float(m.group(1)) if m else None


def qor(bench, first, refs, problems):
    files = [{"key": d["netlist.v"], "file": bench.path("netlist-%s.v" % d["netlist.v"]), "lib": job.item.lib()}
             for d, job in first.values()]
    checked, _ = probe(bench, "check", {"files": files}, "check")
    ratios, cycles = [], []
    for key, (d, job) in sorted(first.items()):
        c = checked[d["netlist.v"]]
        if not c["ok"]:
            problems.append("%s: netlist does not re-read clean: %s" % (key, c["err"]))
            continue
        ratios.append(c["area"] / refs[key]["area"])
        cyc = cycle_of(job)
        if cyc is None:
            problems.append("%s: no cycle figure in the artifacts" % key)
        else:
            cycles.append(cyc)
    return ratios, cycles


def serve_mix(bench):
    items = plan(bench.seed)
    order = random.Random("order-%d" % bench.seed)
    prepare_req = prepare_request(bench, items)
    goldens = read_goldens(bench, "internal/flowserv/testdata/golden_digests.txt")
    uploads = {}
    rounds, problems, first = [], [], {}
    cal = Calibration(bench)
    # At least MIN_ROUNDS rounds, then another while half the mean round so
    # far still fits in the measuring time. The host's speed is sampled
    # before every round and after the last, when drserve is not running:
    # a kernel run during a round would compete with the jobs for the CPUs.
    t0 = time.perf_counter()
    while len(rounds) < (1 if bench.trace else MIN_ROUNDS) or (
            not bench.trace and (time.perf_counter() - t0) * (len(rounds) + 0.5) / len(rounds) <= bench.seconds):
        cal.sample(reps=5)
        r = run_round(bench, arrange(items, order), prepare_req, uploads)
        check_round(bench, r, goldens, first, problems)
        rounds.append(r)
    cal.sample(reps=5)
    ratios, cycles = qor(bench, first, rounds[-1].refs, problems)
    if bench.trace:
        return traced(bench, rounds[0], problems, cal)
    mixed = [j for r in rounds for j in r.jobs]
    quiet = [j for r in rounds for j in r.quiet]
    jobs = mixed + quiet
    ok = [j for j in jobs if j.state == "done"]
    k = cal.scale()
    ops = [(j.item.key, k * j.latency) for j in mixed if j.kind in ("fresh", "attached") and j.latency is not None]
    hits = [(j.item.key, k * j.latency) for j in quiet if j.kind == "hit"]
    if not ops or not hits:
        raise BenchError("serve_mix produced no fresh or no cache-hit jobs")
    # Per round, every request but the repeats runs fresh or attaches.
    tail_v, tail_label = tail([lat for _, lat in ops], MIN_ROUNDS * sum(1 + it.pair for it in items))
    metrics = {
        "setup_s": metric(k * median([r.setup for r in rounds]), "s"),
        "op_gmean_s": metric(median_gmean(ops), "s"),
        "op_tail_s": metric(tail_v, "s"),
        "ops_per_s": metric(sum(1 for j in mixed if j.state == "done") / (k * sum(r.wall for r in rounds)), "1/s"),
        "hit_gmean_s": metric(median_gmean(hits), "s"),
        "peak_rss_mb": metric(median([r.peak_rss for r in rounds]), "MB"),
        "ok_frac": metric(len(ok) / len(jobs), "ratio"),
        "qor_area_ratio": metric(geomean(ratios), "ratio"),
        "qor_cycle_ns": metric(geomean(cycles), "ns/cycle"),
    }
    kinds = {}
    for j in mixed:
        kinds[j.kind] = kinds.get(j.kind, 0) + 1
    notes = ["%d mixed-phase jobs in %d drserve rounds (%s), then %d quiet cache hits; "
             "op_tail_s is the %s of fresh and attached jobs"
             % (len(mixed), len(rounds), ", ".join("%d %s" % (v, k) for k, v in sorted(kinds.items())),
                len(quiet), tail_label),
             "drserve grows %.2f MB per job; peak RSS per round: %s MB" % (
                 median([r.rss_per_job for r in rounds]), ", ".join("%.0f" % r.peak_rss for r in rounds)),
             cal.note(),
             "unscaled: op_gmean_s %.4f s, hit_gmean_s %.5f s" % (
                 median_gmean((key, lat / k) for key, lat in ops), median_gmean((key, lat / k) for key, lat in hits))]
    return {"correct": not problems, "attempted": len(jobs), "failed": len(jobs) - len(ok),
            "metrics": metrics, "problems": problems, "notes": notes}


def traced(bench, r, problems, cal):
    """Per-layer metrics of serve_mix: drserve's layers measured from the
    client side of one round, and the in-process layers from a traced run
    of the round's distinct flows."""
    fresh = [j for j in r.jobs if j.kind == "fresh" and j.state == "done"]
    stage_gaps = {s: [] for s in layers.STAGES}
    waits, runs = [], []
    for j in fresh:
        stage_idx = [i for i, (_, ev) in enumerate(j.events) if ev["kind"] == "stage"]
        if not stage_idx:
            continue
        waits.append(j.events[stage_idx[0]][0] - j.submit)
        runs.append(j.latency - j.events[stage_idx[0]][0])
        for i in stage_idx:
            stage_gaps[j.events[i][1]["stage"]].append(j.events[i + 1][0] - j.events[i][0])
    cache = r.stats["cache"]
    m = {
        "flowserv.submit_s": metric(median([j.submit for j in r.jobs]), "s"),
        "flowserv.queue_wait_s": metric(median(waits), "s"),
        "flowserv.run_s": metric(median(runs), "s"),
        "flowserv.hit_frac": metric(cache["hits"] / max(1, cache["hits"] + cache["misses"]), "ratio"),
        "flowserv.attached": metric(r.stats["attached"], "count"),
        "flowserv.rejected": metric(sum(1 for j in r.jobs if j.kind == "rejected"), "count"),
        "flowserv.rss_mb_per_job": metric(r.rss_per_job, "MB/job"),
    }
    for s, gaps in stage_gaps.items():
        m["flowserv.stage.%s_s" % s] = metric(median(gaps) if gaps else 0.0, "s")

    ops, seen = [], set()
    for j in fresh:
        it = j.item
        if it.key in seen:
            continue
        seen.add(it.key)
        op = {"id": it.key, "lib": it.lib(), "backend": it.backend(),
              "equiv": bool(it.req["options"].get("equiv"))}
        if it.upload:
            op["in"] = bench.path(it.upload + ".v")
        else:
            op["gen"] = it.req["gen"]
        ops.append(op)
    os.makedirs(bench.path("traced"))
    ans, _ = probe(bench, "trace", {"ops": ops, "dir": bench.path("traced"),
                                    "trace": layers.trace_path(bench)}, "trace")
    problems += ["traced op %s: %s" % (o["id"], o["err"]) for o in ans["ops"] if not o["ok"]]
    m.update(layers.from_trace(ans))
    m["trace.untraced_op_wall_s"] = metric(sum(j.latency for j in fresh) / len(fresh), "s")
    m["proc.cpu_s"] = metric(r.cpu / len(r.jobs), "s")
    m["host.calibration_s"] = metric(median(cal.samples), "s")
    return {"correct": not problems, "attempted": len(r.jobs),
            "failed": sum(1 for j in r.jobs if j.state != "done"),
            "metrics": layers.complete(m), "problems": problems, "notes": []}
