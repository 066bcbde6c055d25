#!/usr/bin/env python3
"""Served-cache benchmark: closed-loop workloads through icgmm_serve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run builds the daemon, the load
generator and the probe (Release) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). See perfbench/README.md.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. Any failed correctness check
exits 1.
"""

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402

CONFIG_PATH = os.path.join(HERE, "workloads.json")
TARGETS = ("icgmm_serve", "icgmm_loadgen", "perfbench_probe")
STEP_TIMEOUT_S = 120


class CheckFailed(Exception):
    """A correctness check failed: the result is printed with correct=false."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------

def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once, then builds the three targets (a no-op when fresh).
    Returns the paths of the binaries."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as build_log:
        def step(cmd):
            rc = subprocess.call(cmd, stdout=build_log, stderr=build_log)
            if rc != 0:
                build_log.flush()
                with open(log_path) as f:
                    log(f.read()[-4000:])
                raise RuntimeError(f"build step failed: {' '.join(cmd)}")

        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            step(cmd)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        step(["cmake", "--build", out, "-j", jobs, "--target", *TARGETS])
    return {
        "serve": os.path.join(out, "icgmm", "tools", "icgmm_serve"),
        "loadgen": os.path.join(out, "icgmm", "tools", "icgmm_loadgen"),
        "probe": os.path.join(out, "perfbench_probe"),
    }


# --- processes -------------------------------------------------------------

def cpu_sets(cfg):
    """Disjoint cores for the daemon and the client, or none (no pinning)
    when the host has fewer cores than the thread budget."""
    cpus = sorted(os.sched_getaffinity(0))
    need = cfg["daemon"]["cpus"] + cfg["client"]["cpus"]
    if len(cpus) < need or not shutil.which("taskset"):
        return [], []
    return cpus[:cfg["daemon"]["cpus"]], cpus[-cfg["client"]["cpus"]:]


def taskset(cpus):
    return ["taskset", "-c", ",".join(map(str, cpus))] if cpus else []


class Daemon:
    """One icgmm_serve process: started, timed to its `listening` line, and
    always stopped and waited for."""

    def __init__(self, bins, cpus, plan, trace_sample):
        d = plan["daemon"]
        cmd = taskset(cpus) + [
            bins["serve"], "--port", "0", "--quiet", "--policy", plan["policy"],
            "--cache-mb", str(d["cache_mb"]), "--assoc", str(d["assoc"]),
            "--shards", str(d["shards"]), "--threads", str(d["threads"]),
            "--trace-sample", str(trace_sample)]
        if plan["policy"] != "lru":
            cmd += ["--train-benchmark", plan["generator"],
                    "--train-requests", str(plan["train_requests"]),
                    "--seed", str(plan["train_seed"])]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        try:
            out = b""
            deadline = start + STEP_TIMEOUT_S
            while not re.search(rb"listening on port (\d+).*\n", out):
                left = deadline - time.perf_counter()
                fd = self.proc.stdout.fileno()
                if left <= 0 or not select.select([fd], [], [], left)[0]:
                    raise RuntimeError("icgmm_serve did not start listening")
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError("icgmm_serve exited before listening")
                out += chunk
            self.setup_s = time.perf_counter() - start
            self.port = int(re.search(rb"listening on port (\d+)", out).group(1))
            self.pin_threads(cpus)
        except BaseException:
            self.stop()
            raise

    def pin_threads(self, cpus):
        """One core per thread, in creation order (I/O thread, then the
        workers), so that no launch places two busy threads on one core;
        the idle main thread shares the first core."""
        if not cpus:
            return
        tids = sorted(int(t) for t in os.listdir(f"/proc/{self.proc.pid}/task"))
        os.sched_setaffinity(tids[0], {cpus[0]})
        for i, tid in enumerate(tids[1:]):
            os.sched_setaffinity(tid, {cpus[i % len(cpus)]})

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for icgmm_serve")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def cpu_jiffies():
    """(steal, total) jiffies over all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def run_json(cmd, what):
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=STEP_TIMEOUT_S)
    if res.returncode != 0:
        log(res.stderr[-2000:])
        raise CheckFailed(f"{what} exited {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def stream_flags(plan, seed):
    d = plan["daemon"]
    return ["--benchmark", plan["generator"], "--policy", plan["policy"],
            "--seed", str(seed), "--train-seed", str(plan["train_seed"]),
            "--train-requests", str(plan["train_requests"]),
            "--requests", str(plan["requests"]),
            "--flush-at", str(plan["flush_at"]),
            "--cache-mb", str(d["cache_mb"]), "--assoc", str(d["assoc"]),
            "--shards", str(d["shards"])]


def loadgen_round(bins, cpus, plan, seed, port, index):
    """One icgmm_loadgen pass over the stream, checked; returns its figures."""
    c = plan["client"]
    path = os.path.join(build_dir(), f"round-{os.getpid()}-{index}.json")
    cmd = taskset(cpus) + [
        bins["loadgen"], "--port", str(port), "--quiet",
        "--benchmark", plan["generator"], "-n", str(plan["requests"]),
        "--seed", str(seed), "--connections", str(c["connections"]),
        "--batch", str(c["batch"]), "--pipeline", str(c["pipeline"]),
        "--flush-at", str(plan["flush_at"]),
        "--protocol", str(c["protocol"]), "--json", path]
    steal0, total0 = cpu_jiffies()
    res = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                         text=True, timeout=STEP_TIMEOUT_S)
    steal1, total1 = cpu_jiffies()
    try:
        with open(path) as f:
            r = json.load(f)
    except (OSError, ValueError):
        log(res.stderr[-2000:])
        raise CheckFailed(f"icgmm_loadgen exited {res.returncode} without JSON")
    finally:
        if os.path.exists(path):
            os.remove(path)
    s, m = r["server"], r["server_metrics"]
    misses = s["read_misses"] + s["write_misses"]
    errors = m["icgmm_server_protocol_errors"] + m["icgmm_server_error_replies"]
    window = r["requests"] - int(plan["flush_at"] * r["requests"])
    checks = {
        "loadgen exit 0": res.returncode == 0,
        "completed == attempted": r["completed"] == r["requests"],
        "hits + misses == accesses": s["hits"] + misses == s["accesses"],
        "accesses == post-flush requests": s["accesses"] == window,
        "no protocol errors or error replies": errors == 0,
    }
    return {
        "attempted": r["requests"],
        "failed": r["requests"] - r["completed"] + errors,
        "rps": r["achieved_qps"],
        "p50_us": r["latency_us"]["p50"],
        "p99_us": r["latency_us"]["p99"],
        "batches": -(-r["requests"] // c["batch"]),
        "miss_rate": layers.ratio(misses, s["accesses"]),
        "steal": layers.ratio(steal1 - steal0, total1 - total0),
        "checks": checks,
    }


def serve_rounds(bins, pins, plan, seed, launches, seconds, trace_sample,
                 warm_up=None):
    """`launches` fresh daemons. Each is warmed by one pass over the stream
    (a loadgen round, or `warm_up(daemon)` when given), which is checked but
    not measured, and is then driven by measured loadgen rounds for its share
    of `seconds`, and on for up to twice that share until it has its share
    of `min_clean` rounds the hypervisor did not steal from (see
    quiet_rounds). Returns (warm-up rounds, measured rounds, set-up figures
    of every launch)."""
    warm, rounds, started = [], [], []
    share = seconds / launches
    need = -(-plan["min_clean"] // launches)
    for _ in range(launches):
        daemon = Daemon(bins, pins[0], plan, trace_sample)
        try:
            if warm_up:
                warm_up(daemon)
            else:
                warm.append(loadgen_round(bins, pins[1], plan, seed,
                                          daemon.port, len(warm) + len(rounds)))
            t0 = time.perf_counter()
            clean = 0
            while True:
                r = loadgen_round(bins, pins[1], plan, seed, daemon.port,
                                  len(warm) + len(rounds))
                rounds.append(r)
                clean += r["steal"] <= plan["max_steal"]
                spent = time.perf_counter() - t0
                if spent >= 2 * share or (spent >= share and clean >= need):
                    break
            started.append({"setup_s": daemon.setup_s,
                            "rss_mb": daemon.peak_rss_mb()})
        finally:
            daemon.stop()
    return warm, rounds, started


def setup_only(bins, pins, plan, count):
    """Set-up times of `count` more launches that serve nothing."""
    times = []
    for _ in range(count):
        daemon = Daemon(bins, pins[0], plan, 0)
        daemon.stop()
        times.append(daemon.setup_s)
    return times


def quiet_rounds(plan, rounds):
    """The rounds during which the hypervisor stole at most max_steal of the
    CPU time, when there are min_clean of them; else every round. Steal is
    time the host takes from this machine, so it only ever slows a round
    and says nothing about the program measured."""
    quiet = [r for r in rounds if r["steal"] <= plan["max_steal"]]
    return quiet if len(quiet) >= plan["min_clean"] else rounds


def merge_checks(rounds):
    checks = {}
    for r in rounds:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
    return checks


# --- the two kinds of run --------------------------------------------------

def end_to_end(bins, pins, plan, seed, seconds):
    ref = run_json([bins["probe"], "replay"] + stream_flags(plan, seed),
                   "perfbench_probe replay")
    warm, rounds, started = serve_rounds(bins, pins, plan, seed,
                                         plan["launches"], seconds,
                                         trace_sample=0)
    setups = [s["setup_s"] for s in started]
    setups += setup_only(bins, pins, plan, plan["setups"] - len(setups))
    every = warm + rounds
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    served_miss = statistics.median([r["miss_rate"] for r in rounds])
    timed = quiet_rounds(plan, rounds)
    checks = merge_checks(every)
    tol = plan["miss_rate_tolerance"]
    checks[f"served miss_rate within {tol} of replay"] = (
        abs(served_miss - ref["miss_rate"]) <= tol)
    metrics = {
        "throughput_rps": (statistics.median([r["rps"] for r in timed]), "req/s"),
        "latency_p50_us": (statistics.median([r["p50_us"] for r in timed]), "us"),
        "latency_p99_us": (statistics.median([r["p99_us"] for r in timed]), "us"),
        "success_rate": (1.0 - layers.ratio(failed, attempted), "ratio"),
        "miss_rate": (served_miss, "ratio"),
        "amat_us": (ref["amat_us"], "us"),
        "setup_s": (statistics.median(setups), "s"),
        "server_rss_mb": (statistics.median([s["rss_mb"] for s in started]), "MB"),
    }
    batches = rounds[0]["batches"]
    notes = [
        f"{len(rounds)} measured rounds of {plan['requests']} requests over "
        f"{len(started)} warm daemons, {len(timed)} timed (steal <= "
        f"{plan['max_steal']}); setup_s over {len(setups)} launches",
        f"p99 per round over {batches} batches of {plan['client']['batch']} "
        f"({batches // 100} batches beyond it), us @ steal: "
        + " ".join(f"{r['p99_us']:.0f}@{r['steal']:.3f}" for r in rounds),
        f"error_rate {layers.ratio(failed, attempted):.6f}; replay miss_rate "
        f"{ref['miss_rate']:.6f}; {ref['distinct_pages']} distinct pages "
        f"({ref['distinct_pages'] / ref['cache_blocks']:.2f}x the cache), "
        f"write share {ref['write_share']:.3f}",
    ]
    return metrics, attempted, failed, checks, notes


def traced(bins, pins, plan, seed, seconds):
    probe = run_json([bins["probe"], "layers", "--reps", str(plan["reps"])]
                     + stream_flags(plan, seed), "perfbench_probe layers")
    warm, untraced_rounds, _ = serve_rounds(bins, pins, plan, seed, 1,
                                            seconds / 2, trace_sample=0)
    spans_path = os.path.join(build_dir(), f"spans-{plan['name']}.csv")
    client = {}

    def traced_client(daemon):
        client.update(run_json(taskset(pins[1]) + [bins["probe"], "client",
                                          "--port", str(daemon.port),
                                          "--spans", spans_path]
                               + stream_flags(plan, seed),
                               "perfbench_probe client"))

    _, traced_rounds, _ = serve_rounds(bins, pins, plan, seed, 1, seconds / 2,
                                       trace_sample=1, warm_up=traced_client)
    rounds = warm + untraced_rounds + traced_rounds
    out = layers.derive_layers(
        client, probe,
        statistics.median([r["rps"] for r in quiet_rounds(plan, untraced_rounds)]),
        statistics.median([r["rps"] for r in quiet_rounds(plan, traced_rounds)]))
    # The traced client serves the stream twice (warm-up, then traced).
    attempted = sum(r["attempted"] for r in rounds) + 2 * client["requests"]
    failed = (sum(r["failed"] for r in rounds) + client["requests"]
              - client["completed"] + out["net.protocol_errors"])
    checks = merge_checks(rounds)
    checks["traced client completed == attempted"] = (
        client["completed"] == client["requests"])
    checks["traced server served every client request"] = (
        client["metrics"]["icgmm_server_requests_served"] == client["requests"])
    checks["traced STATS hits + misses == accesses"] = (
        client["stats_hits"] + client["stats_misses"] == client["stats_accesses"])
    checks["self times + unexplained == traced time"] = (
        layers.accounting_error(out) < 1e-9)
    notes = [f"traced client {out['traced_ns_per_req']:.1f} ns/req over "
             f"{client['batches']} batch spans (written to {spans_path})"]
    return out, attempted, failed, checks, notes


# --- entry point -----------------------------------------------------------

def load_plan(name, quick):
    with open(CONFIG_PATH) as f:
        cfg = json.load(f)
    if name not in cfg["workloads"]:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"choose from {', '.join(cfg['workloads'])}")
    w = cfg["workloads"][name]
    plan = {
        "name": name,
        "generator": w["generator"],
        "policy": w["policy"],
        "train_seed": w["train_seed"],
        "launches": w["launches"],
        "setups": max(w["launches"], w.get("setups", 0)),
        "daemon": cfg["daemon"],
        "client": cfg["client"],
        "requests": cfg["client"]["requests"],
        "flush_at": cfg["client"]["flush_at"],
        "train_requests": cfg["daemon"]["train_requests"],
        "miss_rate_tolerance": cfg["miss_rate_tolerance"],
        "max_steal": cfg["max_steal"],
        "min_clean": cfg["min_clean_rounds"],
        "reps": 2,
    }
    if quick:
        plan.update(cfg["quick"], launches=1, setups=1, reps=1, min_clean=1)
    return cfg, plan


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny stream and one round: checks names, not speed")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        import selftest
        return selftest.main()
    if not args.workload:
        ap.error("--workload is required")

    cfg, plan = load_plan(args.workload, args.quick)
    if plan["policy"] != "lru" and args.seed == plan["train_seed"]:
        plan["train_seed"] += 1  # history and served stream always differ
    try:
        bins = build()
    except (OSError, RuntimeError) as e:
        log(f"error: {e}")
        return 1
    pins = cpu_sets(cfg)
    if not pins[0]:
        log("note: fewer cores than the thread budget or no taskset; unpinned")

    try:
        if args.trace:
            values, attempted, failed, checks, notes = traced(
                bins, pins, plan, args.seed, args.seconds)
            metrics = {k: (values[k], u) for k, u in layers.PER_LAYER.items()}
        else:
            metrics, attempted, failed, checks, notes = end_to_end(
                bins, pins, plan, args.seed, args.seconds)
    except CheckFailed as e:
        log(f"error: {e}")
        metrics, attempted, failed, checks, notes = {}, 1, 1, {str(e): False}, []

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6f} {unit}")
    for name, ok in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    correct = all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
