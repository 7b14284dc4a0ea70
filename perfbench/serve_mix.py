"""Workload `serve-mix`: the twilld daemon on loopback under a seeded mix.

twilld runs with --jobs 2. Three closed-loop clients, multiplexed on one
asyncio thread, each submit a request, poll its report with a fixed short
backoff and take the report once it is done, then submit the next. The
request stream comes from `perfbench_harness serve-plan`: 45% are
byte-identical repeats of the kernel requests primed during set-up (full
hits in the response cache), 35% are CHStone kernels under Twill sim
axes not seen before (artifact hits: the compile is cached, the Twill flow
is re-simulated), and the rest are fresh generated programs (misses).

The same serve pass (class Pass) gives the traced chstone and progen runs
their serve-layer metrics, under plans drawn from their own programs
(`serve-plan --mix chstone|progen`), so every workload reports every
metric.
"""

import asyncio
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import time

JOBS = 2  # twilld worker threads
CLIENTS = 3  # more clients than workers, so jobs queue
# twilld keeps its default cache size (64 entries): the 8 primed kernel
# requests are each touched at least every ~45 jobs (serve-plan), so LRU
# evicts only the cold entries of the misses and artifact hits.
BACKOFF_S = 0.001  # between report polls
HEALTHZ_PERIOD_S = 0.02
PLAN_PER_SECOND = 1200  # requests drawn per measured second (well above the rate served)
# The end-to-end figures come from the run's busiest window of this length
# (see window_metrics); peak RSS is read once this many jobs are done.
WINDOW_S = 10.0
RSS_AT_JOBS = 2000
SETUP_REPS = 7  # timed set-ups per run (~50 ms each); setup_s is their median
SAMPLE_PER_KIND = 2  # served reports re-checked against the in-process oracle
# The traced run's in-process layer pass: its length, and how many of the
# misses served it replays besides the primed kernels.
LAYERS_S = 5.0
LAYER_MISSES = 64
# Length of the serve pass the traced chstone and progen runs add.
SIDE_PASS_S = 5.0

WALL_MS = re.compile(rb'("[A-Za-z0-9_]*_wall_ms": )[-+0-9.eE]+')


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    s = sorted(values)
    return s[min(len(s), max(1, math.ceil(q * len(s)))) - 1]


async def http(port, method, path, body=b""):
    """One HTTP/1.1 exchange (twilld closes every connection). Returns
    (status, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    writer.write(head.encode() + body)
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


def http_sync(port, method, path, body=b""):
    return asyncio.run(http(port, method, path, body))


class Daemon:
    """A twilld process on an ephemeral port, up once /v1/healthz answers."""

    def __init__(self, twilld, workdir):
        self.port_file = os.path.join(workdir, "twilld.port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.log = open(os.path.join(workdir, "twilld.log"), "ab")
        self.proc = subprocess.Popen(
            [twilld, "--port", "0", "--port-file", self.port_file, "--jobs", str(JOBS)],
            stdout=self.log, stderr=self.log)
        deadline = time.monotonic() + 30
        try:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"twilld exited with {self.proc.returncode}")
                if time.monotonic() > deadline:
                    raise RuntimeError("twilld did not come up")
                try:
                    with open(self.port_file) as f:
                        self.port = int(f.read())
                    if http_sync(self.port, "GET", "/v1/healthz")[0] == 200:
                        return
                except (OSError, ValueError):
                    pass
                time.sleep(0.001)
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for twilld")

    def stats(self):
        status, body = http_sync(self.port, "GET", "/v1/stats")
        assert status == 200
        return json.loads(body)

    def evictions(self):
        status, body = http_sync(self.port, "GET", "/v1/metrics")
        assert status == 200
        total = 0
        for line in body.decode().splitlines():
            if line.startswith("twilld_cache_evictions_total"):
                total += int(float(line.split()[-1]))
        return total

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def check_report(body, expect):
    """The served report if it is ok and every flow returned the expected
    value, else None."""
    try:
        doc = json.loads(body)
    except ValueError:
        return None
    if not doc.get("ok") or doc.get("result") != expect:
        return None
    flows = doc.get("flows", {})
    if all(flows.get(f, {}).get("ran") and flows[f].get("ok") and flows[f].get("result") == expect
           for f in ("sw", "hw", "twill")):
        return doc
    return None


class Job:
    __slots__ = ("item", "client", "start", "submit_ms", "polls", "status", "body", "ms", "spans")

    def __init__(self, item, client):
        self.item, self.client = item, client
        self.polls, self.spans = 0, []


async def run_job(port, job, clock0):
    """Submit, poll until done, keep the report. Returns False when the
    submission was refused."""
    t0 = time.perf_counter()
    job.start = t0
    status, body = await http(port, "POST", "/v1/jobs", job.item["request"].encode())
    t1 = time.perf_counter()
    job.submit_ms = (t1 - t0) * 1000
    job.spans.append(("submit", t0 - clock0, t1 - t0))
    if status != 202:
        job.status, job.body, job.ms = status, body, (t1 - t0) * 1000
        return False
    job_id = json.loads(body)["job_id"]
    while True:
        await asyncio.sleep(BACKOFF_S)
        p0 = time.perf_counter()
        status, body = await http(port, "GET", f"/v1/jobs/{job_id}/report")
        p1 = time.perf_counter()
        job.polls += 1
        job.spans.append(("poll" if status == 202 else "report", p0 - clock0, p1 - p0))
        if status != 202:
            break
    job.status, job.body, job.ms = status, body, (time.perf_counter() - t0) * 1000
    return True


async def drive(port, plan, seconds, daemon):
    """The closed loop. Returns (jobs, healthz_ms, elapsed_s, peak_rss_mb)."""
    items = iter(plan)
    jobs, healthz, rss = [], [], []
    clock0 = time.perf_counter()
    deadline = clock0 + seconds
    done = asyncio.Event()

    async def client(index):
        for item in items:
            if time.perf_counter() >= deadline:
                return
            job = Job(item, index)
            jobs.append(job)
            await run_job(port, job, clock0)
            if len(jobs) == RSS_AT_JOBS:
                rss.append(daemon.peak_rss_mb())

    async def probe():
        while not done.is_set():
            h0 = time.perf_counter()
            status, _ = await http(port, "GET", "/v1/healthz")
            if status == 200:
                healthz.append((time.perf_counter() - h0) * 1000)
            await asyncio.sleep(HEALTHZ_PERIOD_S)

    probe_task = asyncio.ensure_future(probe())
    await asyncio.gather(*(client(i) for i in range(CLIENTS)))
    elapsed = max(j.start + j.ms / 1000 for j in jobs) - clock0
    done.set()
    await probe_task
    if time.perf_counter() < deadline:
        print("serve-mix: request plan exhausted before the deadline", flush=True)
    return jobs, healthz, elapsed, (rss or [daemon.peak_rss_mb()])[0]


def window_metrics(jobs, elapsed):
    """(jobs_per_s, job_ms list) of the WINDOW_S window, among the run's
    complete consecutive ones, that completed the most jobs. On a shared
    host the CPUs alternate between states up to ~1.6x apart for seconds at
    a time; the busiest window is the run's least contended stretch, so the
    figures follow the system rather than which state held more of the run.
    A run shorter than one window is taken whole."""
    n = int(elapsed // WINDOW_S)
    if n == 0:
        return len(jobs) / elapsed, [j.ms for j in jobs]
    clock0 = min(j.start for j in jobs)
    windows = [[] for _ in range(n)]
    for j in jobs:
        w = int((j.start + j.ms / 1000 - clock0) // WINDOW_S)
        if w < n:
            windows[w].append(j.ms)
    best = max(windows, key=len)
    return len(best) / WINDOW_S, best


async def prime(port, items):
    jobs = [Job(item, 0) for item in items]
    await asyncio.gather(*(run_job(port, j, time.perf_counter()) for j in jobs))
    return all(j.status == 200 and check_report(j.body, j.item["expect"]) is not None for j in jobs)


def reference_reports(harness, requests):
    out = subprocess.run([harness, "reference"], input="".join(r + "\n" for r in requests),
                         capture_output=True, text=True, timeout=120, check=True)
    return [json.loads(line)["report"].encode() for line in out.stdout.splitlines()]


def write_trace(path, jobs):
    events = [{"ph": "M", "pid": 9, "name": "process_name",
               "args": {"name": "perfbench serve-mix clients (wall us)"}}]
    for op, job in enumerate(jobs, 1):
        detail = f"op {op} {job.item['kind']}"
        for name, begin, dur in job.spans:
            events.append({"ph": "X", "pid": 9, "tid": job.client, "cat": "serve", "name": name,
                           "ts": round(begin * 1e6), "dur": round(dur * 1e6),
                           "args": {"detail": detail}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


class Pass:
    """One serve pass: the plan, the set-ups, the driven clients and the
    checks of what was served."""

    def __init__(self, harness, twilld, seed, seconds, workdir, mix, setup_reps, plan_extra=()):
        plan_path = os.path.join(workdir, f"serve-plan-{mix}-{seed}.jsonl")
        count = max(200, int(seconds * PLAN_PER_SECOND))
        gen = subprocess.run([harness, "serve-plan", "--seed", str(seed), "--count", str(count),
                              "--mix", mix, "--out", plan_path, *plan_extra],
                             capture_output=True, text=True, timeout=170, check=True)
        self.plan_stats = json.loads(gen.stdout.strip().splitlines()[-1])
        with open(plan_path) as f:
            lines = [json.loads(line) for line in f]
        os.remove(plan_path)
        self.primes = [x for x in lines if x["kind"] == "prime"]
        plan = [x for x in lines if x["kind"] != "prime"]

        # Set-up: daemon start until /v1/healthz answers, then the requests
        # the full hits repeat. The measured daemon's set-up is untimed; the
        # `setup_reps` timed ones follow the run, each on a fresh daemon (as
        # kSetupReps in harness.cpp: a run's first second often finds the
        # CPUs in a slower state).
        self.setup_s, self.correct = [], True
        daemon = Daemon(twilld, workdir)
        try:
            self.correct &= asyncio.run(prime(daemon.port, self.primes))
            before, evict_before = daemon.stats(), daemon.evictions()
            self.jobs, self.healthz, self.elapsed, self.peak_rss = asyncio.run(
                drive(daemon.port, plan, seconds, daemon))
            after, evict_after = daemon.stats(), daemon.evictions()
        finally:
            daemon.stop()
        for _ in range(setup_reps):
            t0 = time.perf_counter()
            daemon = Daemon(twilld, workdir)
            try:
                self.correct &= asyncio.run(prime(daemon.port, self.primes))
                self.setup_s.append(time.perf_counter() - t0)
            finally:
                daemon.stop()

        self.failed, self.reports = 0, []
        for job in self.jobs:
            doc = check_report(job.body, job.item["expect"]) if job.status == 200 else None
            if doc is None:
                self.failed += 1
                if self.failed <= 5:
                    print(f"serve-mix: FAILED {job.item['kind']} job: status {job.status}", flush=True)
            else:
                self.reports.append(doc)

        # The mix the daemon served must be the mix drawn.
        self.drawn = {k: sum(1 for j in self.jobs if j.item["kind"] == k)
                      for k in ("full", "artifact", "miss")}
        self.served = {"full": after["cache"]["full_hits"] - before["cache"]["full_hits"],
                       "artifact": after["cache"]["artifact_hits"] - before["cache"]["artifact_hits"],
                       "miss": after["cache"]["misses"] - before["cache"]["misses"]}
        self.evictions = evict_after - evict_before
        if self.drawn != self.served:
            self.correct = False
            print(f"serve-mix: drawn mix {self.drawn} != served mix {self.served}", flush=True)

        # A seeded sample of served reports against in-process runCompileRequest.
        rng = random.Random(seed)
        sample = []
        for kind in ("full", "artifact", "miss"):
            of_kind = [j for j in self.jobs if j.item["kind"] == kind and j.status == 200]
            sample += rng.sample(of_kind, min(SAMPLE_PER_KIND, len(of_kind)))
        for job, ref in zip(sample, reference_reports(harness, [j.item["request"] for j in sample])):
            if WALL_MS.sub(rb"\1 0", job.body) != WALL_MS.sub(rb"\1 0", ref):
                self.correct = False
                print(f"serve-mix: served {job.item['kind']} report differs from runCompileRequest",
                      flush=True)

        self.rate, self.window_ms = window_metrics(self.jobs, self.elapsed)
        print(f"serve-mix ({mix} requests): {len(self.jobs)} jobs in {self.elapsed:.2f} s "
              f"({self.drawn}), busiest {WINDOW_S:g} s window {len(self.window_ms)} jobs, "
              f"{len(self.healthz)} healthz probes, plan {self.plan_stats}", flush=True)

    def result(self, metrics):
        return {
            "correct": self.correct and self.failed == 0,
            "attempted": len(self.jobs),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def end_to_end(self):
        """The end-to-end metrics: job times from the busiest window, Twill
        figures over every report served."""
        speedups = [r["speedups"]["twill_vs_sw"] for r in self.reports]
        return {
            "op_ms_p50": (percentile(self.window_ms, 0.50), "ms"),
            "op_ms_p99": (percentile(self.window_ms, 0.99), "ms"),
            "twill_speedup": (math.exp(statistics.fmean(math.log(x) for x in speedups)), "x"),
            "twill_power": (statistics.fmean(r["power"]["twill"] for r in self.reports), "ratio"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (self.peak_rss, "MiB"),
        }

    def serve_layer(self):
        """The per-layer metrics of src/serve."""
        def kind_p50(kind):
            return statistics.median([j.ms for j in self.jobs if j.item["kind"] == kind] or [0])
        return {
            "http.submit_ms_p50": (statistics.median(j.submit_ms for j in self.jobs), "ms"),
            "http.healthz_ms_p50": (statistics.median(self.healthz or [0]), "ms"),
            "serve.polls_per_job": (sum(j.polls for j in self.jobs) / len(self.jobs), "count"),
            "serve.jobs_per_s": (self.rate, "1/s"),
            "serve.job_ms_p50.full": (kind_p50("full"), "ms"),
            "serve.job_ms_p50.artifact": (kind_p50("artifact"), "ms"),
            "serve.job_ms_p50.miss": (kind_p50("miss"), "ms"),
            "serve.full_hits": (self.served["full"], "count"),
            "serve.artifact_hits": (self.served["artifact"], "count"),
            "serve.misses": (self.served["miss"], "count"),
            "serve.evictions": (self.evictions, "count"),
        }

    def programs(self, limit):
        """"EXPECT REQUEST" lines of the distinct programs served: the primed
        ones, then the first `limit` misses of the plan that were served."""
        seen, lines = set(), []
        misses = [j.item for j in self.jobs if j.item["kind"] == "miss"]
        for item in self.primes + misses[:limit]:
            if item["request"] not in seen:
                seen.add(item["request"])
                lines.append(f"{item['expect']} {item['request']}\n")
        return "".join(lines)


def run(harness, twilld, seed, seconds, trace, workdir, trace_out=None, layers_trace_out=None,
        plan_extra=()):
    """Runs the serve-mix workload; returns the result object. The traced
    run adds the in-process layers, replayed over the programs served.
    `plan_extra` passes self-test options to serve-plan."""
    p = Pass(harness, twilld, seed, seconds, workdir, "serve-mix",
             0 if trace else SETUP_REPS, plan_extra)
    if not trace:
        return p.result(p.end_to_end())
    if trace_out:
        write_trace(trace_out, p.jobs)
    metrics = p.serve_layer()
    metrics["verify.rejects"] = (p.plan_stats["verify_rejects"], "count")
    metrics["progen.long_runs"] = (p.plan_stats["long_runs"], "count")
    cmd = [harness, "layers", "--seed", str(seed), "--seconds", str(min(seconds, LAYERS_S))]
    if layers_trace_out:
        cmd += ["--trace-out", layers_trace_out]
    out = subprocess.run(cmd, input=p.programs(LAYER_MISSES), stdout=subprocess.PIPE, text=True,
                         timeout=170)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"harness layers exited with {out.returncode}")
    for line in lines[:-1]:
        print(line, flush=True)
    layers = json.loads(lines[-1])
    result = p.result(metrics)
    result["correct"] = result["correct"] and layers["correct"]
    result["attempted"] += layers["attempted"]
    result["failed"] += layers["failed"]
    result["metrics"].update(layers["metrics"])
    return result


def side_pass(harness, twilld, seed, seconds, workload, workdir):
    """The serve layer under a workload's own requests, for the traced
    chstone and progen runs: a shorter pass with no timed set-ups. Returns
    (correct, attempted, failed, metrics)."""
    p = Pass(harness, twilld, seed, min(seconds, SIDE_PASS_S), workdir, workload, 0)
    r = p.result(p.serve_layer())
    return r["correct"], r["attempted"], r["failed"], r["metrics"]
