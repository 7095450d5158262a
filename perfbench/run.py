#!/usr/bin/env python3
"""DeepPool service benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. Each run builds the library, the `deeppool`
CLI and the perfbench tool (Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), generates the workload's seeded request
stream, and then:

  1. spawns `deeppool serve --unix serve.sock --jobs 2` several times to
     time set-up (spawn -> answer to the set-up request), keeping the last
     server for the run;
  2. replays the stream against it with `perfbench load` (closed loop,
     tracing off) and reads the server's peak RSS before stopping it;
  3. checks the outputs: every request got one ok reply, one sampled
     request per shape matches an in-process Service (`perfbench verify`),
     and fleet replies completed every job;
  4. with --trace 1, also replays the stream in-process through each
     layer's public calls with spans on (`perfbench trace`).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1). A failed check prints correct=false and exits 1. --smoke runs
every workload briefly in both modes, prints each run's report, and asserts
that every metric named in BENCHMARK.json is printed with its unit and that
verification ran.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import streams  # noqa: E402

SPEC = os.path.join(HERE, "spec.json")
TIMING_PARTS = (("p50", "us", "lower"), ("p99", "us", "lower"),
                ("calls", "count", "higher"), ("share", "fraction", "lower"))


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def per_layer_names(spec):
    """(name, unit, better) of every per-layer metric, in spec order."""
    out = []
    for base, m in spec["per_layer"].items():
        if m["kind"] == "timing":
            out += [(f"{base}.{part}", unit, better)
                    for part, unit, better in TIMING_PARTS]
        else:
            out.append((base, m["unit"], m["better"]))
    return out


# --- build -------------------------------------------------------------------

def check_tree():
    for path in ("CMakeLists.txt", "src/CMakeLists.txt",
                 "tools/deeppool_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, path)):
            raise BenchError(f"{path} not found: perfbench/ must sit in the "
                             "root of a deeppool source tree")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, rebuilds every run (a no-op when nothing changed)."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                    "perfbench", "deeppool_cli"],
                   stdout=sys.stderr, check=True)
    build_type = "unknown"
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return (os.path.join(bdir, "perfbench"),
            os.path.join(bdir, "deeppool", "tools", "deeppool"), build_type)


def provenance():
    """The git commit when the tree is a checkout, and a digest of the
    sources the benchmark builds either way."""
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", "tools", "cmake"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.relpath(os.path.join(dirpath, f), ROOT)
                      for f in files]
    for path in sorted(paths):
        digest.update(path.encode())
        with open(os.path.join(ROOT, path), "rb") as f:
            digest.update(f.read())
    return commit, digest.hexdigest()[:16]


# --- server ------------------------------------------------------------------

class Server:
    """One `deeppool serve --unix` process in the run directory."""

    def __init__(self, binary, argv, run_dir):
        self.binary, self.argv, self.run_dir = binary, argv, run_dir
        self.sock = os.path.join(run_dir, "serve.sock")
        self.proc = None

    def start(self, setup_line):
        """Spawns the server; returns seconds until its set-up answer."""
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        with open(os.path.join(self.run_dir, "serve.log"), "ab") as log_file:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                [self.binary] + self.argv, cwd=self.run_dir,
                stdin=subprocess.DEVNULL, stdout=log_file, stderr=log_file)
        conn = self._connect(t0)
        try:
            conn.sendall(setup_line.encode() + b"\n")
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = conn.recv(1 << 16)
                if not chunk:
                    raise BenchError("server closed during set-up")
                reply += chunk
            setup_s = time.perf_counter() - t0
        finally:
            conn.close()
        if not reply.startswith(b'{"ok":true'):
            raise BenchError("set-up request failed: " + reply[:200].decode())
        return setup_s

    def _connect(self, t0):
        # A relative path keeps the socket name short whatever the checkout
        # path is (sun_path holds 108 bytes).
        cwd = os.getcwd()
        os.chdir(self.run_dir)
        try:
            while True:
                if self.proc.poll() is not None:
                    raise BenchError("server exited during start-up")
                if time.perf_counter() - t0 > 30:
                    raise BenchError("server did not listen within 30 s")
                conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    conn.connect("serve.sock")
                    return conn
                except OSError:
                    conn.close()
                    time.sleep(0.0005)
        finally:
            os.chdir(cwd)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


def cpu_times():
    """Busy jiffies of /proc/stat's cpu line: user, nice, system, irq,
    softirq and, last, steal."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[0:3] + fields[5:8]


# --- statistics --------------------------------------------------------------

def percentile(xs, p):
    """Nearest rank, the rule perfbench/src/common.h uses."""
    xs = sorted(xs)
    rank = max(1, math.ceil(p * len(xs)))
    return xs[min(rank, len(xs)) - 1]


def latency_metrics(latency_s, jobs, wall_s):
    return {"req_per_s": len(latency_s) / wall_s,
            "jobs_per_s": jobs / wall_s,
            "p50_ms": percentile(latency_s, 0.50) * 1e3,
            "p95_ms": percentile(latency_s, 0.95) * 1e3,
            "p99_ms": percentile(latency_s, 0.99) * 1e3}


def end_to_end(rows, meta, lines):
    """The latency and throughput metrics (see spec.json "estimator"), with
    a line saying what they rest on. Host interference only ever slows a
    send down, so each request counts at the fastest send of its work."""
    ok = [r for r in rows if r[6]]
    best = {}
    for r in ok:
        key = meta[r[0] % len(meta)]["key"]
        best[key] = min(r[4] - r[2], best.get(key, float("inf")))
    seen, latency_s, jobs = set(), [], 0
    for r in sorted(ok):
        line = lines[r[0] % len(lines)]
        if line not in seen:
            seen.add(line)
            m = meta[r[0] % len(meta)]
            latency_s.append(best[m["key"]])
            jobs += m["jobs"]
    n = len(latency_s)
    note = (f"{n} distinct requests at the lowest latency of their "
            f"work over {len(ok)} sends: {n - int(0.95 * n)} beyond "
            f"p95, {n - int(0.99 * n)} beyond p99")
    return latency_metrics(latency_s, jobs, sum(latency_s)), note


def timing(values_s, total_s):
    us = [v * 1e6 for v in values_s]
    return {"p50": percentile(us, 0.50), "p99": percentile(us, 0.99),
            "calls": len(us), "share": sum(values_s) / total_s}


# --- one run -----------------------------------------------------------------

def run_tool(argv, cwd, timeout):
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    if proc.stderr:
        log(proc.stderr.rstrip())
    return proc


def run(workload, seed, seconds, trace):
    check_tree()
    spec = load_spec()
    if workload not in spec["workloads"]:
        raise BenchError(f"unknown workload {workload}; valid: "
                         + ", ".join(spec["workloads"]))
    w = spec["workloads"][workload]
    bdir = build_dir()
    tool, deeppool, build_type = build(bdir)
    commit, digest = provenance()
    run_dir = os.path.join(bdir, "runs", f"{workload}-{seed}-{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "replies"))
    streams.write(workload, seed, run_dir)
    info = (f"workload={workload} seed={seed} seconds={seconds} trace={trace} "
            f"nproc={os.cpu_count()} commit={commit} source_sha256={digest} "
            f"build_type={build_type}")
    print("perfbench: " + info)
    with open(os.path.join(run_dir, "run.info"), "w") as f:
        f.write(info + "\n")

    with open(os.path.join(run_dir, "stream.meta.ndjson")) as f:
        meta = [json.loads(line) for line in f]
    with open(os.path.join(run_dir, "warmup.ndjson")) as f:
        setup_line = f.readline().strip()
    samples = {}
    for i, m in enumerate(meta):
        samples.setdefault(m["shape"], i)

    server = Server(deeppool, spec["server"]["argv"], run_dir)
    try:
        setups = []
        for _ in range(spec["setup_samples"] - 1):
            setups.append(server.start(setup_line))
            server.stop()
        setups.append(server.start(setup_line))
        load_argv = [
            tool, "load", "--socket", "serve.sock",
            "--stream", "stream.ndjson", "--out", "load.json",
            "--connections", str(w["connections"]),
            "--seconds", str(seconds),
            "--warmup-seconds", str(w["warmup_seconds"]),
            "--round", str(w["round"]),
            "--check-jobs", "1" if w["check_jobs"] else "0",
            "--sample", ",".join(str(i) for i in sorted(samples.values())),
            "--sample-dir", "replies",
            "--models-rtt", "300" if trace else "0"]
        cpu_before = cpu_times()
        if run_tool(load_argv, run_dir, seconds + 120).returncode != 0:
            raise BenchError("perfbench load failed")
        cpu_after = cpu_times()
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    with open(os.path.join(run_dir, "load.json")) as f:
        load = json.load(f)
    rows = [r for r in load["records"] if not r[7]]
    if not rows:
        raise BenchError("no request completed inside the window")
    attempted = len(rows)
    failed = sum(1 for r in rows if not r[6])
    if w["check_jobs"]:
        failed += sum(1 for r in rows
                      if r[6] and r[8] != meta[r[0] % len(meta)]["jobs"])

    sent = {r[0] for r in load["records"]}
    verified = sorted(i for i in samples.values() if i in sent)
    verify = run_tool([tool, "verify", "--stream", "stream.ndjson",
                       "--replies", "replies",
                       "--indices", ",".join(map(str, verified)),
                       "--jobs", str(spec["server"]["jobs"])],
                      run_dir, 60)
    print(verify.stdout.rstrip())
    correct = verify.returncode == 0 and bool(verified) and failed == 0

    window_s = max(r[4] for r in rows) - min(r[2] for r in rows)
    with open(os.path.join(run_dir, "stream.ndjson")) as f:
        lines = f.read().splitlines()
    e2e, note = end_to_end(rows, meta, lines)
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = peak_rss_mb
    print(f"requests {attempted} (failed {failed}, failed_frac "
          f"{failed / attempted:.6f}), window {window_s:.3f} s, "
          f"verified {len(verified)} sampled shape(s)")
    print(note + "; setup samples "
          + " ".join(f"{s:.4f}" for s in setups))
    busy = sum(b - a for a, b in zip(cpu_before, cpu_after))
    print(f"hypervisor steal during the window: "
          f"{(cpu_after[-1] - cpu_before[-1]) / max(1, busy):.1%} of busy CPU "
          "time (high values make this run's numbers unreliable)")

    if not trace:
        metrics = {name: (e2e[name], m["unit"])
                   for name, m in spec["end_to_end"].items()}
    else:
        metrics = layer_metrics(spec, w, tool, run_dir, seconds, rows, load)
    print_table(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def layer_metrics(spec, w, tool, run_dir, seconds, rows, load):
    trace_argv = [tool, "trace", "--stream", "stream.ndjson",
                  "--warmup", "warmup.ndjson", "--probe", "probe.ndjson",
                  "--seconds", str(seconds / 2),
                  "--connections", str(w["connections"]),
                  "--jobs", str(spec["server"]["jobs"]),
                  "--out", "trace.json", "--chrome", "trace.chrome.json"]
    if run_tool(trace_argv, run_dir, seconds / 2 + 90).returncode != 0:
        raise BenchError("perfbench trace failed")
    with open(os.path.join(run_dir, "trace.json")) as f:
        traced = json.load(f)

    latency_s = [r[4] - r[2] for r in rows]
    total_s = sum(latency_s)
    rtt = load["models_rtt_s"]
    values = {
        "io.ttfb_us": timing([r[3] - r[2] for r in rows], total_s),
        "io.transfer_us": timing([r[4] - r[3] for r in rows], total_s),
        "io.models_rtt_us": dict(
            timing(rtt, 1.0),
            share=percentile(rtt, 0.5) / percentile(latency_s, 0.5)),
        "io.reply_bytes": percentile([r[5] for r in rows], 0.5),
        "sched.jobs": traced["sched_jobs"],
        "core.cache_hit_ratio": traced["cache_hit_ratio"],
        "obs.span_ns": traced["span_ns"],
        "obs.tracing_overhead_frac": traced["tracing_overhead_frac"],
    }
    for name, layer in traced["layers"].items():
        values[name + "_us"] = {"p50": layer["p50_us"],
                                "p99": layer["p99_us"],
                                "calls": layer["calls"],
                                "share": layer["share"]}
    probed = sorted(n for n, layer in traced["layers"].items()
                    if layer["probe"])
    print(f"traced run: {traced['requests']} request(s), overhead "
          f"{traced['tracing_overhead_frac']:+.4f}, span "
          f"{traced['span_ns']:.1f} ns; timed on the probe request: "
          + (", ".join(probed) or "none"))
    metrics = {}
    for base, m in spec["per_layer"].items():
        if base not in values:
            raise BenchError(f"traced run did not measure {base}")
        if m["kind"] == "timing":
            for part, unit, _ in TIMING_PARTS:
                metrics[f"{base}.{part}"] = (values[base][part], unit)
        else:
            metrics[base] = (values[base], m["unit"])
    return metrics


def print_table(metrics):
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6g} {unit}")


# --- smoke -------------------------------------------------------------------

def smoke():
    """Every BENCHMARK.json metric, with its unit, on every workload."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = load_spec()
    declared = {"end_to_end": {m["name"]: m["unit"]
                               for m in bench["end_to_end"]},
                "per_layer": {m["name"]: m["unit"]
                              for m in bench["per_layer"]}}
    expected = {"end_to_end": {k: m["unit"]
                               for k, m in spec["end_to_end"].items()},
                "per_layer": {n: u for n, u, _ in per_layer_names(spec)}}
    problems = [f"BENCHMARK.json {kind} differs from perfbench/spec.json"
                for kind in declared if declared[kind] != expected[kind]]
    if sorted(w["name"] for w in bench["workloads"]) != sorted(
            spec["workloads"]):
        problems.append("BENCHMARK.json workloads differ from spec.json")
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", "1", "--seconds", "1", "--trace",
                 str(trace)], cwd=ROOT, capture_output=True, text=True,
                timeout=600)
            lines = proc.stdout.strip().splitlines()
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}")
                log(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[kind]:
                problems.append(f"{tag}: printed metrics differ from "
                                f"BENCHMARK.json {kind}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: outputs not verified correct")
            if "payload matches" not in proc.stdout:
                problems.append(f"{tag}: no verification ran")
            log(f"smoke {tag}: {len(printed)} metrics, "
                f"{result['attempted']} requests")
    for p in problems:
        log("SMOKE FAIL: " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} failure(s)"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description="DeepPool service benchmark (see perfbench/README.md)")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.smoke:
            check_tree()
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        return run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
