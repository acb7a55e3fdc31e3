#!/usr/bin/env python3
"""The WEBER benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload resolve_www05 --seed 1 \
        --seconds 20 --trace 0

It builds the library, weber_serve, weber_router and the measuring binary
`weberbench` from source (CMake, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), generates the workload's corpus from --seed, runs
the workload and prints one JSON line last:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. `--smoke` instead runs every workload on a tiny corpus in
both modes and checks that every metric is printed with its unit.
README.md in this directory says what each workload and metric is for.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# "fleet": the traced run also serves the corpus through two weber_serve
# backends behind a weber_router over loopback (see README.md); the
# serve.*, router.* and loadgen.* per-layer metrics then come from there.
WORKLOADS = {
    "resolve_www05": {"preset": "www05", "fleet": True},
    "resolve_large": {"preset": "large", "fleet": False},
}
FLEET_LAYERS = ("serve.", "router.", "loadgen.")

# Per-layer metrics that exist only behind the fleet; they read 0 on a
# workload without it.
FLEET_ONLY = {"serve.direct_rtt_ms", "serve.transport_ms", "router.hop_ms",
              "router.retries", "router.failovers", "loadgen.lateness_ms"}

# The fleet (its open-loop rates are fixed in serve_workload.cc).
BACKENDS = 2
COMPACT_EVERY = 50

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def _die_with_parent():
    """Child pre-exec hook: SIGKILL the child if this script dies."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)
    except OSError:
        pass


class Processes:
    """Every process the benchmark starts, stopped on every exit path."""

    def __init__(self):
        self.procs = []

    def spawn(self, argv, log_path):
        with open(log_path, "ab") as out:
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=subprocess.STDOUT,
                                    preexec_fn=_die_with_parent)
        self.procs.append(proc)
        return proc

    def stop(self, procs=None):
        procs = list(self.procs if procs is None else procs)
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            self.procs.remove(proc)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        with open(log_path, "ab") as build_log:
            rc = subprocess.call(step, stdout=build_log,
                                 stderr=subprocess.STDOUT, env=env,
                                 timeout=BUILD_TIMEOUT_S)
        if rc != 0:
            with open(log_path, "rb") as f:
                tail = f.read()[-3000:].decode(errors="replace")
            if len(steps) == 1:  # a stale cache: configure afresh next time
                os.remove(os.path.join(out, "CMakeCache.txt"))
            raise BenchError("build failed (%s):\n%s" % (" ".join(step), tail))
    return out


def run_json(argv, timeout):
    """Runs a weberbench subcommand and returns its JSON result line."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, timeout=timeout,
                          preexec_fn=_die_with_parent)
    sys.stderr.write(proc.stderr.decode(errors="replace"))
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited %d" % (argv[1], proc.returncode))
    return json.loads(lines[-1])


def wait_port_file(path, proc, deadline):
    while time.monotonic() < deadline:
        if os.path.exists(path):
            with open(path) as f:
                text = f.read()
            if text.endswith("\n"):
                return int(text)
        if proc.poll() is not None:
            raise BenchError("%s exited %d before listening"
                             % (os.path.basename(proc.args[0]),
                                proc.returncode))
        time.sleep(0.002)
    raise BenchError("%s did not listen in time" % proc.args[0])


def start_fleet(bins, work, procs):
    """Starts the backends and the router; returns (backend ports, router
    port, processes)."""
    deadline = time.monotonic() + 60.0
    backends, ports = [], []
    for i in range(BACKENDS):
        port_file = os.path.join(work, "backend%d.port" % i)
        backends.append((procs.spawn(
            [os.path.join(bins, "weber_serve"),
             "--dataset=" + os.path.join(work, "backend%d.txt" % i),
             "--gazetteer=" + os.path.join(work, "gazetteer.txt"),
             "--port=0", "--port-file=" + port_file, "--nostdio",
             "--compact_every=%d" % COMPACT_EVERY],
            os.path.join(work, "backend%d.log" % i)), port_file))
    for proc, port_file in backends:
        ports.append(wait_port_file(port_file, proc, deadline))
    router_port_file = os.path.join(work, "router.port")
    router = procs.spawn(
        [os.path.join(bins, "weber_router"),
         "--backends=" + ",".join("127.0.0.1:%d" % p for p in ports),
         "--port=0", "--port-file=" + router_port_file,
         # compact-all of the larger backend takes 1.5 s and more on a busy
         # host, close to the 2 s default per-hop budget.
         "--call-timeout-ms=10000"],
        os.path.join(work, "router.log"))
    router_port = wait_port_file(router_port_file, router, deadline)
    return ports, router_port, [p for p, _ in backends] + [router]


def weighted(stats, verb, key):
    """Count-weighted mean of one endpoint percentile across backends."""
    total = sum(s["endpoints"].get(verb, {}).get("count", 0) for s in stats)
    if total == 0:
        return 0.0
    return sum(s["endpoints"][verb][key] * s["endpoints"][verb]["count"]
               for s in stats if verb in s["endpoints"]) / total


def fleet_layer_metrics(result, metrics):
    """serve.* / router.* per-layer metrics from the scraped `stats`."""
    stats = [result[k] for k in sorted(result) if k.startswith("stats_backend")]
    for verb in ("assign", "query", "compact", "match"):
        metrics["serve.%s_ms" % verb] = (weighted(stats, verb, "p50_ms"), "ms")
        metrics["serve.%s_ms.p99" % verb] = (weighted(stats, verb, "p99_ms"),
                                             "ms")
    hits = sum(s["cache"]["hits"] for s in stats)
    misses = sum(s["cache"]["misses"] for s in stats)
    metrics["serve.cache.hits"] = (hits, "count")
    metrics["serve.cache.misses"] = (misses, "count")
    metrics["serve.cache.hit_rate"] = (hits / max(1, hits + misses), "ratio")
    metrics["serve.cache.entries"] = (
        sum(s["cache"]["entries"] for s in stats), "count")
    for key in ("compactions", "snapshot_swaps"):
        metrics["serve." + key] = (sum(s["counters"][key] for s in stats),
                                   "count")
    # Mean server-side query time of the paired round trips alone (both
    # legs reach a backend): the difference of the exact count and mean.
    before = [result[k] for k in sorted(result)
              if k.startswith("stats_before_backend")]

    def query_total(snapshots):
        ms = sum(s["endpoints"]["query"]["mean_ms"] *
                 s["endpoints"]["query"]["count"] for s in snapshots)
        return ms, sum(s["endpoints"]["query"]["count"] for s in snapshots)

    (ms_after, n_after), (ms_before, n_before) = (query_total(stats),
                                                  query_total(before))
    server_ms = (ms_after - ms_before) / max(1, n_after - n_before)
    metrics["serve.transport_ms"] = (
        metrics["serve.direct_rtt_ms"][0] - server_ms, "ms")
    router = result["stats_router"]["router"]
    metrics["router.retries"] = (router["retries"], "count")
    metrics["router.failovers"] = (router["failovers"], "count")


def run_resolve(bins, work, args):
    result = run_json([os.path.join(bins, "weberbench"), "resolve",
                       "--dir=" + work, "--seed=%d" % args.seed,
                       "--seconds=%s" % args.seconds,
                       "--trace=%d" % args.trace], RUN_TIMEOUT_S)
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    return result, metrics


def run_fleet(bins, work, args, procs):
    """The traced fleet session: ingest, compact and read phases through
    the router for half the run length, then the scraped stats."""
    ports, router_port, fleet = start_fleet(bins, work, procs)
    result = run_json(
        [os.path.join(bins, "weberbench"), "serve", "--dir=" + work,
         "--seed=%d" % args.seed, "--seconds=%s" % (args.seconds / 2),
         "--router_port=%d" % router_port,
         "--backend_ports=" + ",".join(str(p) for p in ports)],
        RUN_TIMEOUT_S)
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    fleet_layer_metrics(result, metrics)
    for proc in fleet:
        if proc.poll() is not None:
            raise BenchError("%s died during the run (exit %d)"
                             % (proc.args[0], proc.returncode))
    procs.stop(fleet)
    return result, metrics


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select(spec, trace, metrics):
    """The metric set of this mode, with each declared unit checked."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for entry in declared:
        name = entry["name"]
        if name not in metrics and trace and name in FLEET_ONLY:
            metrics[name] = (0, entry["unit"])
        if name not in metrics:
            raise BenchError("metric %s was not measured" % name)
        value, unit = metrics[name]
        if unit != entry["unit"]:
            raise BenchError("metric %s has unit %s, declared %s"
                             % (name, unit, entry["unit"]))
        out[name] = {"value": value, "unit": unit}
    return out


def remove_stale_runs(runs):
    """Deletes run directories left by a run that was killed outright."""
    for name in os.listdir(runs) if os.path.isdir(runs) else []:
        pid = int(name.rsplit("-", 1)[-1])
        if not os.path.exists("/proc/%d" % pid):
            shutil.rmtree(os.path.join(runs, name), ignore_errors=True)


def run_workload(args, procs, preset=None):
    bins = build()
    workload = WORKLOADS[args.workload]
    runs = os.path.join(build_dir(), "runs")
    remove_stale_runs(runs)
    work = os.path.join(runs,
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    with_fleet = bool(args.trace) and workload["fleet"]
    try:
        gen = [os.path.join(bins, "weberbench"), "generate",
               "--preset=" + (preset or workload["preset"]),
               "--seed=%d" % args.seed, "--out=" + work]
        if with_fleet:
            gen.append("--backends=%d" % BACKENDS)
        subprocess.run(gen, check=True, timeout=RUN_TIMEOUT_S,
                       stdin=subprocess.DEVNULL)
        result, metrics = run_resolve(bins, work, args)
        if with_fleet:
            fleet, fleet_metrics = run_fleet(bins, work, args, procs)
            metrics.update({k: v for k, v in fleet_metrics.items()
                            if k.startswith(FLEET_LAYERS)})
            for key in ("attempted", "failed"):
                result[key] += fleet[key]
            result["correct"] = result["correct"] and fleet["correct"]
    finally:
        procs.stop()
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": bool(result["correct"]) and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select(load_spec(), args.trace, metrics),
    }


def smoke(procs):
    """Every workload on the tiny corpus, both modes: every declared metric
    printed with its unit, and no failed operation."""
    spec = load_spec()
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1.0,
                                      trace=trace)
            out = run_workload(args, procs, preset="tiny")
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            names = [m["name"] for m in declared]
            if sorted(out["metrics"]) != sorted(names):
                raise BenchError("%s trace=%d printed %s"
                                 % (workload, trace, sorted(out["metrics"])))
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                raise BenchError("%s trace=%d: %d of %d operations failed"
                                 % (workload, trace, out["failed"],
                                    out["attempted"]))
            log("smoke %s trace=%d: %d metrics, %d operations ok"
                % (workload, trace, len(names), out["attempted"]))
    print(json.dumps({"smoke": "ok"}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-corpus check of every workload and metric")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    def on_signal(signum, _frame):
        raise BenchError("stopped by signal %d" % signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    procs = Processes()
    try:
        if args.smoke:
            smoke(procs)
        else:
            out = run_workload(args, procs)
            print(json.dumps(out))
            if not out["correct"]:
                return 1
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log("error:", e)
        return 1
    finally:
        procs.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
