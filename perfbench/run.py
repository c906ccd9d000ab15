#!/usr/bin/env python3
"""Whole-flow benchmark: netlist in, QoR out, on four named workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload mempool-ours-t1 --seed 1 \\
        --seconds 45 --trace 0

The first call builds perfbench_runner (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Each flow run
is one runner child process with a wall-clock deadline enforced from here:
a run past its deadline is killed, logged with its workload, thread count,
seed, run index and design seed, and counted as failed, and the benchmark
carries on. A hung pool worker cannot be cancelled in-process, and one
process per run also gives every run its own peak RSS.

--trace 0 repeats untraced runs for --seconds (at least one run; another
starts only if a run of median length would end within the window) and
reports the end-to-end metrics as medians over the completed runs.
--trace 1 repeats traced runs (an untraced flow, then a call-by-call replay
of it) and reports the per-layer metrics. A run fails on a FlowError, a
degradation, a violation from the kFull validators, or QoR that is not
bit-identical to the other runs of the same design; any of these makes
"correct" false and the exit status 1. Every metric is printed with its unit; the last stdout line is
the JSON result {"correct", "attempted", "failed", "metrics"}. Exit status
2 means nothing could be built (no sources, or a build error), 3 that no
run completed.

--smoke runs each workload's flow on a 400-instance aes (the benchmark's
own tests, perfbench/test_run.py). --first-deadline forces the deadline
path on the first run only.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# name -> threads, per-run deadline (s), designs per call, why
WORKLOADS = {
    "mempool-ours-t4": (4, 20.0, 5, "MemPool Group, the paper's flow at 4 threads"),
    "mempool-ours-t1": (1, 20.0, 5, "MemPool Group, the paper's flow serially"),
    "mempool-default-t4": (4, 20.0, 5, "MemPool Group, flat from-scratch placement"),
    "scale1m-sharded-t4": (4, 170.0, 1,
                           "scale-1m, uniform shapes, 8-shard placement"),
}

# Exit within this many seconds of the build finishing, hung runs included.
RUN_BUDGET_S = 165.0
# setup_s is the median over the flow runs' set-ups, topped up by set-up-only
# children until there are MIN_SETUPS or the top-ups have taken SETUP_TOPUP_S.
MIN_SETUPS = 31
SETUP_TOPUP_S = 8.0

END_TO_END = [  # name, unit, post-route only
    ("flow_s", "s", False),
    ("place_s", "s", False),
    ("flow_cpu_s", "s", False),
    ("peak_rss_mb", "MB", False),
    ("setup_s", "s", False),
    ("hpwl_um", "um", False),
    ("rwl_um", "um", True),
    ("wns_ps", "ps", True),
    ("tns_ns", "ns", True),
    ("power_mw", "mW", True),
    ("overflow_edges", "count", True),
]


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def layer_unit(name):
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("_mb"):
        return "MB"
    if suffix.startswith("us_per"):
        return "us"
    if suffix in ("lane_eff", "overflow", "shard_imbalance", "overhead_frac",
                  "coverage_frac"):
        return "ratio"
    return "count"


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def build():
    """Configures and builds the runner; returns its path or None."""
    if not (ROOT / "src").is_dir() or not (ROOT / "bench" / "alloc_count.cpp").is_file():
        log(f"no ppacd sources under {ROOT}; nothing to benchmark")
        return None
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.call(["cmake", "--build", str(build_dir), "-j", jobs],
                       stdout=sys.stderr) != 0:
        return None
    runner = build_dir / "perfbench_runner"
    return runner if runner.is_file() else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (subprocess.SubprocessError, OSError):
        return "unknown"


def run_child(cmd, deadline_s):
    """Runs one runner child; returns (result dict or None, status, elapsed)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PPACD_")}
    started = time.monotonic()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, env=env, start_new_session=True)
    try:
        out, err = child.communicate(timeout=max(deadline_s, 0.001))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return None, "killed", time.monotonic() - started
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    elapsed = time.monotonic() - started
    for line in reversed(out.splitlines()):
        if line.startswith("PERFBENCH_RESULT "):
            return json.loads(line.split(" ", 1)[1]), "ok", elapsed
    tail = " | ".join(err.strip().splitlines()[-3:])
    return None, f"exit status {child.returncode} without a result ({tail})", elapsed


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, as
    (label, value), or None when there are not enough samples."""
    n = len(values)
    if n < 11:
        return None
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


def fmt(value):
    return f"{value:.6g}"


def stop(signum, _frame):
    """Turns SIGTERM into SystemExit so run_child's cleanup kills the child."""
    sys.exit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny aes design instead of the workload's")
    parser.add_argument("--first-deadline", type=float, default=None,
                        help="deadline (s) for the first run only")
    args = parser.parse_args()

    threads, deadline_s, designs, why = WORKLOADS[args.workload]
    runner = build()
    if runner is None:
        log("build failed")
        return 2

    # Run i uses design i mod designs, generated from the seed args.seed *
    # designs + (i mod designs): one MemPool design's flow time depends on the
    # design by up to a third, so a batch of them keeps that out of the
    # medians.
    design_seeds = [args.seed * designs + k for k in range(designs)]

    def child(mode, index):
        cmd = [str(runner), "--workload", args.workload, "--mode", mode,
               "--seed", str(design_seeds[index % designs])]
        return cmd + ["--smoke"] if args.smoke else cmd

    start = time.monotonic()
    samples, durations = [], []
    attempted = failed = 0
    check_failed = False
    while True:
        elapsed = time.monotonic() - start
        left = RUN_BUDGET_S - elapsed
        if attempted > 0 and elapsed + statistics.median(durations) > args.seconds:
            break  # another run would end past the measuring window
        if attempted > 0 and left < 1.2 * max(durations):
            break  # another run would not fit in the budget
        deadline = min(deadline_s, left)
        if attempted == 0 and args.first_deadline is not None:
            deadline = args.first_deadline
        result, status, elapsed = run_child(
            child("trace" if args.trace else "flow", attempted), deadline)
        attempted += 1
        durations.append(elapsed)
        where = (f"workload={args.workload} threads={threads} seed={args.seed} "
                 f"run={attempted - 1} "
                 f"design_seed={design_seeds[(attempted - 1) % designs]}")
        if status == "killed":
            failed += 1
            log(f"run killed at its {deadline:.3g} s deadline: {where}")
            continue
        if result is None:
            failed += 1
            check_failed = True
            log(f"run failed, {status}: {where}")
            continue
        if result["failures"]:
            failed += 1
            check_failed = True
            for message in result["failures"]:
                log(f"run failed: {message}: {where}")
            continue
        samples.append(result)
        log(f"run {attempted - 1}: flow_s={result['flow_s']:.4f} "
            f"setup_s={result['setup_s']:.4f}")

    # Determinism contract: every run of one design gives bit-identical QoR.
    reference = {}
    for s in samples:
        reference.setdefault(s["seed"], s["qor_bits"])
    mismatched = [s for s in samples if s["qor_bits"] != reference[s["seed"]]]
    for s in mismatched:
        log(f"run failed: QoR {s['qor_bits']} differs from "
            f"{reference[s['seed']]}: workload={args.workload} seed={args.seed} "
            f"design_seed={s['seed']:.0f}")
    if mismatched:
        failed += len(mismatched)
        check_failed = True
        samples = [s for s in samples if s["qor_bits"] == reference[s["seed"]]]

    setups = [s["setup_s"] for s in samples]
    topup_start = time.monotonic()
    while samples and not args.trace and len(setups) < MIN_SETUPS:
        left = RUN_BUDGET_S - (time.monotonic() - start)
        if (time.monotonic() - topup_start > SETUP_TOPUP_S
                or left < 2.0 * max(setups) + 1.0):
            break
        result, status, _ = run_child(child("setup", len(setups)), left)
        if result is None:
            check_failed = True
            log(f"set-up run failed ({status}): workload={args.workload} "
                f"seed={args.seed}")
            break
        setups.append(result["setup_s"])

    out = []
    if samples:
        first = samples[0]
        provenance = dict(first["provenance"])
        provenance.update(commit=commit(), src_sha256=source_digest(),
                          workload=args.workload, seed=args.seed,
                          design_seeds=design_seeds, design=first["design"],
                          instances=sorted({s["instances"] for s in samples}),
                          runs=len(samples))
        out.append(f"workload {args.workload}: {why}")
        out.append("provenance " + json.dumps(provenance, sort_keys=True))

    metrics = {}
    if samples and not args.trace:
        for name, unit, post_route in END_TO_END:
            if post_route and samples[0]["place_only"]:
                continue
            if name == "setup_s":
                values = setups
            else:
                values = [s[name] if name in s else s["qor"][name] for s in samples]
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            tail = tail_percentile(values)
            tail = (f"{tail[0]} {fmt(tail[1])} {unit}" if tail
                    else "too few for a tail percentile")
            out.append(f"{name} = {fmt(value)} {unit} (median of {len(values)}; "
                       f"{tail})")
    elif samples:
        names = sorted({k for s in samples for k in s["layers"]})
        for name in names:
            values = [s["layers"][name] for s in samples if name in s["layers"]]
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
            out.append(f"{name} = {fmt(value)} {layer_unit(name)} "
                       f"(median of {len(values)})")
        out.append("trace replay QoR bit-identical to the untraced flow: "
                   + str(all(s["replay_qor_bits"] == s["qor_bits"] for s in samples)))
    if samples:
        checked = sorted({name for s in samples for name in s["checks"]})
        out.append(f"validated at kFull in every completed run: {', '.join(checked)}")
    failed_frac = failed / attempted
    out.append(f"failed_frac = {fmt(failed_frac)} ratio "
               f"({failed} of {attempted} runs failed)")
    for line in out:
        print(line)

    # Untraced results carry the declared end-to-end metrics; traced ones
    # every layer metric measured, a superset of the declared per_layer ones
    # (vpr, route, cts and sta run on some workloads only).
    declared = declared_metrics(args.trace == 1) if not args.smoke else list(metrics)
    missing = [name for name in declared if name not in metrics]
    if missing and samples:
        log("declared metrics not measured: " + ", ".join(missing))
    kept = metrics if args.trace else {name: metrics[name] for name in declared
                                       if name in metrics}
    result = {
        "correct": not check_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": kept,
    }
    print(json.dumps(result), flush=True)
    if check_failed:
        return 1
    return 0 if samples and not missing else 3


if __name__ == "__main__":
    sys.exit(main())
