#!/usr/bin/env python3
"""Run one workload of the recpart benchmark and print its result.

Usage, from the root of a recpart checkout:

    python3 perfbench/run.py --workload exec-paper --seed 1 --seconds 50 --trace 0

The script builds bench.exe and recpart.exe from source (dune, release
profile, into .bench_build/), runs bench.exe on the workload, and prints
one JSON line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics.  Every workload runs pinned to one
CPU, with the server child of serve-miss and the nproc domains of
exec-paper.  Everything the run writes stays inside the
checkout: sockets and stores under .bench_run/ (removed on exit), spans of
traced runs under .bench_out/.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
OUT_DIR = ".bench_out"
TARGETS = ("perfbench/bench.exe", "bin/recpart.exe")
BENCH_TIMEOUT_S = 165  # with a no-op build and teardown, a run ends within 180 s


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    cmd = dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                  "--profile", "release", "--cache", "disabled"]
    cmd += ["./" + t for t in TARGETS]
    r = subprocess.run(cmd, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    return r.returncode == 0


def stop_group(proc):
    """SIGTERM the benchmark's process group, then SIGKILL, and wait
    until no process of the group is left."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 10.0)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            proc.poll()
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)


def result_line(out, spec, trace):
    """The bench's result with exactly the metrics BENCHMARK.json lists
    for this mode; layers a workload does not reach read 0."""
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise ValueError("bench.exe printed no result")
    r = json.loads(lines[-1])
    got = r["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(got) - names)
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            if not trace:
                raise ValueError(f"end-to-end metric {m['name']} not measured")
            v = {"value": 0, "unit": m["unit"]}
        if v["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {v['unit']} != {m['unit']}")
        if not math.isfinite(v["value"]):
            raise ValueError(f"{m['name']}: not finite")
        if not trace and v["value"] <= 0:
            raise ValueError(f"{m['name']}: {v['value']} is not positive")
        metrics[m["name"]] = v
    return json.dumps({
        "correct": bool(r["correct"]),
        "attempted": int(r["attempted"]),
        "failed": int(r["failed"]),
        "metrics": metrics,
    })


def main():
    # SIGTERM unwinds through main's cleanup like an error does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {a.workload}")
        return 2
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        log("not at the root of a recpart checkout (no dune-project or lib/)")
        return 2
    if not build():
        log("build failed")
        return 1

    # One fixed CPU, the highest-numbered one, for the whole run: ops are
    # timed on task clocks, which add up to wall time only when the
    # processes doing an op share one CPU (see perfbench/cpu.ml).
    cpus = sorted(os.sched_getaffinity(0))
    affinity = {cpus[-1]}
    run_dir = os.path.join(RUN_DIR, str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [
        os.path.join(BUILD_DIR, "default", TARGETS[0]),
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", repr(a.seconds), "--trace", str(a.trace),
        "--threads", str(len(cpus)),
        "--recpart", os.path.join(BUILD_DIR, "default", TARGETS[1]),
        "--run-dir", run_dir,
    ]
    if a.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(OUT_DIR, f"{a.workload}-seed{a.seed}.spans.jsonl")]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, affinity))
    try:
        out, _ = proc.communicate(timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("bench.exe timed out")
        return 1
    finally:
        stop_group(proc)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass
    if proc.returncode != 0:
        log(f"bench.exe exited with {proc.returncode}")
        return 1
    try:
        line = result_line(out, spec, a.trace)
    except (ValueError, KeyError, TypeError) as e:
        log(f"bad result: {e}")
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
