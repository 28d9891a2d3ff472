#!/usr/bin/env python3
"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload repro-full|scale100k|serve-mixed|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds the `perfbench` binary and the
`td-serve` daemon from source (into $CARGO_TARGET_DIR, default
`.bench_build`), runs one workload, checks its outputs, prints every
metric by name with its unit, and ends with one JSON line:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
ones. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("repro-full", "scale100k", "serve-mixed")
OUT_DIR = ".bench_out"
# A run must end within 180 s; leave room for start-up and output.
TIME_LIMIT_S = 170
# Passes per simulation run, whatever `--seconds` is, so its median has two.
MIN_PASSES = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target_dir):
    """Build the benchmark binary and the td-serve daemon; return their paths."""
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for extra in ([], ["-p", "td-serve", "--bin", "td-serve"]):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
        done = subprocess.run(cmd + extra, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd + extra)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "td-serve")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, so a result names its
    code even outside a git checkout."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "Cargo.toml"), os.path.join(root, "Cargo.lock")]
    for base in (os.path.join(root, "crates"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [
                os.path.join(dirpath, f)
                for f in sorted(filenames)
                if f.endswith((".rs", ".toml", ".lock", ".py"))
            ]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(args, raw, nproc, cpu):
    root = os.getcwd()
    return {
        "git_rev": command_output(["git", "-C", root, "rev-parse", "HEAD"])
        or "none (not a git checkout)",
        "source_sha256": source_digest(root),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "pinned_cpu_steal_percent": raw["steal_percent"],
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "workload": args.workload,
        "workload_seed": args.seed,
        "sim_seed": raw["sim_seed"],
        "profile": raw["profile"],
        "trace": args.trace,
    }


def spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


class Parts:
    """Runs parts of one workload as separate processes of the benchmark
    binary, within the run's overall time limit."""

    def __init__(self, bench_bin, serve_bin, args):
        self.base = [
            bench_bin,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--serve-bin", serve_bin,
            "--out", OUT_DIR,
        ]
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def run(self, part, seconds):
        """Run one part in its own process group, so that on a timeout the
        daemon it started is stopped with it."""
        left = self.deadline - time.monotonic()
        proc = subprocess.Popen(
            self.base + ["--part", part, "--seconds", str(seconds)],
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"perfbench: {part} did not finish within the time limit")
        if proc.returncode != 0 or not stdout.strip():
            raise SystemExit(f"perfbench: {part} exited with {proc.returncode}")
        return json.loads(stdout.strip().splitlines()[-1])


def end_to_end_raw(parts, args):
    """Run set-up, passes and serve sessions; merge their raw samples.

    A simulation workload gives two thirds of `--seconds` to passes (at
    least two) and the rest to its serve probe; `serve-mixed` gives all of
    it to sessions."""
    raw = parts.run("setup", args.seconds)
    attempted, failures, digests = 0, [], []
    serve_seconds = args.seconds
    if args.workload != "serve-mixed":
        serve_seconds = args.seconds / 3
        t0 = time.monotonic()
        passes = []
        while True:
            p = parts.run("pass", args.seconds)
            passes.append(p)
            attempted += p["attempted"]
            failures += p["failures"]
            digests.append(p["digest"])
            typical = stats.median([q["wall_s"] for q in passes])
            spent = time.monotonic() - t0
            if len(passes) >= MIN_PASSES and spent + typical > args.seconds - serve_seconds:
                break
        for key in ("wall_s", "events", "rss_kib"):
            raw[key] = [q[key] for q in passes]
        if len(set(digests)) != 1:
            failures.append(f"report digest changed between passes: {digests}")
    serve = parts.run("serve", serve_seconds)
    attempted += serve["attempted"]
    failures += serve["failures"]
    for key, value in serve.items():
        raw.setdefault(key, value)
    if args.workload == "serve-mixed":
        raw["rss_kib"] = serve["daemon_rss_kib"]
    raw["digest"] = digests[0] if digests else serve["digest"]
    raw["attempted"], raw["failures"] = attempted, failures
    return raw


def cpu_ticks(cpu):
    """(steal, total) clock ticks of `cpu` from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    ticks = [int(x) for x in fields[1:]]
                    return ticks[7], sum(ticks)
    except (OSError, IndexError, ValueError):
        pass
    return None


def steal_percent(before, after):
    """Share of the pinned CPU's time the hypervisor withheld meanwhile: a
    noise figure for the run, not a metric."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return round(100.0 * (after[0] - before[0]) / (after[1] - before[1]), 2)


def pin_to_one_cpu():
    """Pin this process, and so the benchmark binary and the daemon it
    starts, to the first CPU it may use; return that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        # Each workload in turn, as its own run with its own result line.
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [
            subprocess.call([sys.executable, __file__, "--workload", w] + rest)
            for w in WORKLOADS
        ]
        return max(codes)

    bench = spec()
    nproc = len(os.sched_getaffinity(0))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bench_bin, serve_bin = build(os.path.abspath(target))
    cpu = pin_to_one_cpu()
    parts = Parts(bench_bin, serve_bin, args)
    ticks = cpu_ticks(cpu)
    raw = parts.run("trace", args.seconds) if args.trace else end_to_end_raw(parts, args)
    raw["steal_percent"] = steal_percent(ticks, cpu_ticks(cpu))

    attempted, failures = raw["attempted"], raw["failures"]
    for f in failures[:20]:
        log(f"FAILED: {f}")
    print(json.dumps({"provenance": provenance(args, raw, nproc, cpu)}))
    print(f"{args.workload}: report digest {raw['digest']}")

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        layers = raw["layers"]
        if set(layers) != set(units):
            missing, extra = set(units) - set(layers), set(layers) - set(units)
            raise SystemExit(f"perfbench: layer metrics differ: missing {missing}, extra {extra}")
        metrics = {n: {"value": layers[n], "unit": units[n]} for n in units}
        for n, m in metrics.items():
            print(f"{args.workload}  {n:40s} {m['value']:>16.6g} {m['unit']}")
        print(f"{args.workload}: spans written to {raw['spans_file']}")
    else:
        computed = stats.end_to_end(raw)
        names = [m["name"] for m in bench["end_to_end"]]
        if not set(names) <= set(computed):
            raise SystemExit("perfbench: end-to-end metrics differ from BENCHMARK.json")
        metrics = {}
        for n, (value, unit, count) in computed.items():
            if n in names:
                metrics[n] = {"value": value, "unit": unit}
            print(f"{args.workload}  {n:20s} {value:>14.6g} {unit:5s} (n={count})")
        ratio = len(failures) / max(attempted, 1)
        print(f"{args.workload}  {'failed_ratio':20s} {ratio:>14.6g} ratio (n={attempted})")

    out = stats.result(metrics, attempted, len(failures))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
