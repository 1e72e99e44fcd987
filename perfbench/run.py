#!/usr/bin/env python3
"""Repository benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark harness
(`perfbench/`, its own cargo package) and the `sweepd` daemon from source
into $CARGO_TARGET_DIR (default `.bench_build`), then:

* `--trace 0`: times the workload as a closed loop with one client. Each
  sweep runs in a fresh process (and, for `fleet-grid`, against two freshly
  started loopback `sweepd` daemons); the next sweep starts only after the
  previous one finished. The sweeps cycle through the scenario windows of
  seeds N .. N+7. Reports the end-to-end metrics.
* `--trace 1`: one traced replay of the workload (`perfbench trace`),
  reporting the per-layer metrics; spans go to
  `$CARGO_TARGET_DIR/perfbench/trace-W-N.ndjson`.

Every output is checked against `perfbench/expected.json`: the digest of
the summary-mode output bytes and exact counts of the serial fold, recorded
per workload and seed window. For a window not recorded there, the serial
fold is computed first, untimed, and the check is relative to it.
The last stdout line is one JSON object: correct, attempted, failed,
metrics. `--record-expected FIRST-LAST` rewrites `perfbench/expected.json`
for that seed range.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORKLOADS = ["shield-dense", "setup-grid", "dynamic-unfiltered", "fleet-grid"]
# fleet-grid runs the setup-grid inputs, so it must fold to the same bytes.
REFERENCE = {"fleet-grid": "setup-grid"}
# One set-up probe per sweep: the probes sample the same stretch of machine
# time as the sweeps while leaving most of the window to the sweeps.
SETUP_PER_SWEEP = 1
# Distinct scenario windows (`SEED_WINDOWS` in src/workload.rs): seeds that
# agree modulo this run the same inputs, so one recorded entry covers them.
SEED_WINDOWS = 16
# An untimed run cycles its sweeps through this many consecutive windows,
# starting at its own seed's. The windows' costs differ (setup-grid runs two
# scenario seeds in every cell, so its step count moves by up to 10% from
# one window to the next); the median over a run of several windows does
# not hinge on one of them, and neighbouring seeds still share most inputs.
WINDOWS_PER_RUN = 8
MIN_SWEEPS = 3
DAEMONS = 2
CHILD_TIMEOUT_S = 60


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def binary(name):
    return os.path.join(target_dir(), "release", name)


def build():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        raise SystemExit("perfbench: run from the repository root (Cargo.toml and crates/ not found)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH_DIR, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-p", "seo-bench", "--bin", "sweepd"],
    ):
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    os.makedirs(os.path.join(target_dir(), "perfbench"), exist_ok=True)


def peak_rss_kib(pid):
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Fleet:
    """Two fresh loopback `sweepd` daemons, stopped (drained) on exit."""

    def __enter__(self):
        self.procs = []
        self.addrs = []
        log_path = os.path.join(target_dir(), "perfbench", "sweepd.log")
        with open(log_path, "ab") as err:
            for _ in range(DAEMONS):
                proc = subprocess.Popen(
                    [binary("sweepd"), "--listen", "127.0.0.1:0"],
                    stdout=subprocess.PIPE, stderr=err, text=True)
                self.procs.append(proc)
                line = proc.stdout.readline().strip()
                if "listening on" not in line:
                    self.__exit__(None, None, None)
                    raise RuntimeError(f"sweepd did not start: {line!r}")
                self.addrs.append(line.split()[-1])
        return self

    def peak_rss_kib(self):
        return sum(peak_rss_kib(p.pid) for p in self.procs)

    def __exit__(self, *exc):
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        return False


def perfbench(*args):
    """Runs the harness binary; returns its JSON line or None on failure."""
    try:
        done = subprocess.run([binary("perfbench"), *args], stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench {' '.join(args)} timed out after {CHILD_TIMEOUT_S} s")
        return None
    if done.returncode != 0 or not done.stdout.strip():
        log(f"perfbench {' '.join(args)} failed (exit {done.returncode})")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def sweep(workload, seed, first=False, serial=False):
    """One cold-process sweep; returns (result or None, seconds to result,
    daemon peak RSS in KiB)."""
    args = ["sweep", "--workload", workload, "--seed", str(seed)]
    if first:
        args.append("--first")
    if serial:
        args.append("--serial")
    start = time.perf_counter()
    if workload == "fleet-grid":
        with Fleet() as fleet:
            result = perfbench(*args, "--hosts", ",".join(fleet.addrs))
            elapsed = time.perf_counter() - start
            daemons_kib = fleet.peak_rss_kib()
    else:
        result = perfbench(*args)
        elapsed = time.perf_counter() - start
        daemons_kib = 0
    return result, elapsed, daemons_kib


def fingerprint(result):
    keys = ("digest", "episodes", "steps", "corrections", "offloads_issued")
    return {k: result[k] for k in keys}


def reference(workload, seed):
    """The expected full-sweep and first-episode outputs for (workload, seed)."""
    name = REFERENCE.get(workload, workload)
    try:
        with open(EXPECTED) as f:
            recorded = json.load(f).get(name, {}).get(str(seed % SEED_WINDOWS))
    except FileNotFoundError:
        recorded = None
    if recorded is not None:
        return recorded
    log(f"seed {seed} is not recorded for {name}; checking against a fresh serial fold")
    full, _, _ = sweep(name, seed, serial=True)
    first, _, _ = sweep(name, seed, first=True, serial=True)
    if full is None or first is None:
        raise SystemExit("perfbench: the serial reference sweep failed")
    return {"full": fingerprint(full), "first": fingerprint(first)}


def matches(result, expected):
    """Whether a sweep's output equals the expected one. Summary-only
    engines (the fleet) carry no offload count; everything they do carry
    must match."""
    if result is None:
        return False
    got = fingerprint(result)
    return all(got[k] == v for k, v in expected.items()
               if not (k == "offloads_issued" and got[k] is None))


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


def measure(workload, seed, seconds):
    """Closed loop, one client: after an untimed warm-up probe, sweeps run
    back to back, each followed by a set-up probe, so both metrics sample
    the same stretch of machine time. Sweep `i` runs workload seed
    `seed + i % WINDOWS_PER_RUN`. A sweep starts only if a typical
    sweep-and-probe cycle still fits in the window, so a run lasts about
    `seconds` whatever the sweep length."""
    references = [reference(workload, seed + i) for i in range(WINDOWS_PER_RUN)]
    attempted = failed = 0
    # Warm-up, untimed but checked: loads the binaries into the page cache.
    result, _, _ = sweep(workload, seed, first=True)
    attempted += 1
    if not matches(result, references[0]["first"]):
        failed += 1
    setup, walls, per_step, rss_mb, cycles = [], [], [], [], []
    window = time.perf_counter()
    while len(cycles) < MIN_SWEEPS or (
            time.perf_counter() - window + statistics.median(cycles) <= seconds):
        cycle = time.perf_counter()
        input_seed = seed + len(cycles) % WINDOWS_PER_RUN
        expected = references[len(cycles) % WINDOWS_PER_RUN]
        episodes = expected["full"]["episodes"]
        result, _, daemons_kib = sweep(workload, input_seed)
        attempted += episodes
        if matches(result, expected["full"]):
            walls.append(result["wall_s"])
            per_step.append(result["wall_s"] * 1e9 / result["steps"])
            rss_mb.append((result["peak_rss_kib"] + daemons_kib) / 1024)
        else:
            failed += episodes
        for _ in range(SETUP_PER_SWEEP):
            result, elapsed, _ = sweep(workload, input_seed, first=True)
            attempted += 1
            if matches(result, expected["first"]):
                setup.append(elapsed)
            else:
                failed += 1
        cycles.append(time.perf_counter() - cycle)
    log(f"{workload} seed {seed}: {len(setup)} set-up trial(s), {len(walls)} sweep(s), "
        f"wall_s {[round(w, 4) for w in walls]}")
    med = lambda xs: statistics.median(xs) if xs else 0.0
    metrics = {
        "wall_s": {"value": med(walls), "unit": "s"},
        "setup_s": {"value": med(setup), "unit": "s"},
        "ns_per_step": {"value": med(per_step), "unit": "ns"},
        "peak_rss_mb": {"value": med(rss_mb), "unit": "MB"},
        "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }
    emit(failed == 0 and bool(walls) and bool(setup), attempted, failed, metrics)


def traced(workload, seed, expected):
    spans = os.path.join(target_dir(), "perfbench", f"trace-{workload}-{seed}.ndjson")
    result = perfbench("trace", "--workload", workload, "--seed", str(seed), "--spans", spans)
    if result is None:
        raise SystemExit("perfbench: the traced run failed")
    episodes = result["episodes"]
    failed = result["mismatches"]
    if not matches(result, expected["full"]):
        log("the traced engine replay's output differs from the expected output")
        failed += episodes
    log(f"{workload} seed {seed}: traced {result['replayed']} episode(s), "
        f"{result['mismatches']} mismatch(es); spans in {spans}")
    emit(failed == 0, episodes + result["replayed"], failed, result["metrics"])


def record_expected(seeds):
    try:
        with open(EXPECTED) as f:
            table = json.load(f)
    except FileNotFoundError:
        table = {}
    for workload in WORKLOADS:
        if workload in REFERENCE:
            continue
        for seed in seeds:
            full, _, _ = sweep(workload, seed, serial=True)
            first, _, _ = sweep(workload, seed, first=True, serial=True)
            if full is None or first is None:
                raise SystemExit(f"perfbench: the serial sweep of {workload} seed {seed} failed")
            table.setdefault(workload, {})[str(seed)] = {
                "full": fingerprint(full), "first": fingerprint(first)}
            log(f"recorded {workload} seed {seed}: {table[workload][str(seed)]['full']}")
    with open(EXPECTED, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", metavar="FIRST-LAST")
    args = parser.parse_args()
    build()
    if args.record_expected:
        first, last = (int(x) for x in args.record_expected.split("-"))
        record_expected(range(first, last + 1))
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.trace:
        traced(args.workload, args.seed, reference(args.workload, args.seed))
    else:
        measure(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
