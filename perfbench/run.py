#!/usr/bin/env python3
"""End-to-end round benchmark for the FIFL reproduction.

Builds the benchmark binary from the checkout's sources (CMake, into
.bench_build/ at the checkout root), runs one workload, checks its outputs,
prints a readable report, and ends with one JSON result line:

    python3 perfbench/run.py --workload lenet_train --seed 1 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a separate traced run of the same seed). See
perfbench/README.md for the workloads, metrics and measured spreads.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "fifl_perfbench"
WORKLOADS = ("lenet_train", "assess_wide", "cluster_tcp")
BUDGET_TOLERANCE = 1e-6  # relative; budgets are sums of the same doubles


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---- environment record ------------------------------------------------------

def parse_proc_stat(text):
    """(steal, total) jiffies from the aggregate `cpu` line of /proc/stat.

    Total is user+nice+system+idle+iowait+irq+softirq+steal (guest time is
    already inside user/nice). Kernels too old to report steal give 0.
    """
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            values = [int(v) for v in fields[1:9]]
            if len(values) < 4:
                raise ValueError("cpu line has fewer than 4 counters")
            steal = values[7] if len(values) >= 8 else 0
            return steal, sum(values)
    raise ValueError("no aggregate cpu line in /proc/stat text")


def steal_share(before, after):
    """Share of CPU time the hypervisor stole between two parse_proc_stat()
    readings; 0 when no time elapsed."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def read_proc_stat():
    try:
        return parse_proc_stat(Path("/proc/stat").read_text())
    except (OSError, ValueError):
        return None


# ---- build and run -----------------------------------------------------------

def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "fifl_perfbench", "-j", jobs], check=True, stdout=sys.stderr)


def run_binary(args):
    trace_dir = BUILD_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(trace_dir)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{args.workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{args.workload} printed no report")
    return json.loads(lines[-1])


# ---- result ------------------------------------------------------------------

def load_contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def verify_budgets(report, values):
    """Each budget's parts must add up to its total; returns check rows."""
    checks = []
    for budget in report["budgets"]:
        total = values[budget["total"]]
        parts = sum(values[name] for name in budget["parts"])
        ok = abs(parts - total) <= BUDGET_TOLERANCE * max(1.0, abs(total))
        checks.append({"name": "budget_sums_" + budget["total"], "passed": ok,
                       "detail": f"parts {parts:.6f} vs total {total:.6f}"})
    return checks


def result_metrics(report, contract, trace):
    """The contract's metrics for this mode, as {name: {value, unit}}.

    completed_share (1 - failed/attempted) is derived here, after every
    check is counted. Per-layer rows a workload does not run (another
    workload's layer) are reported as 0.
    """
    emitted = {m["name"]: m for m in report["metrics"]}
    attempted, failed = report["attempted"], report["failed"]
    emitted["completed_share"] = {
        "name": "completed_share", "value": (attempted - failed) / attempted,
        "unit": "ratio", "better": "higher", "statistic": "1 - failed / attempted"}
    wanted = contract["per_layer" if trace else "end_to_end"]
    out = {}
    for spec in wanted:
        row = emitted.get(spec["name"])
        if row is None:
            if not trace:
                raise RuntimeError(f"end-to-end metric {spec['name']} not measured")
            row = {"name": spec["name"], "value": 0.0, "unit": spec["unit"],
                   "better": spec["better"], "statistic": "layer absent"}
            emitted[spec["name"]] = row
        if row["unit"] != spec["unit"]:
            raise RuntimeError(f"{spec['name']}: unit {row['unit']} != {spec['unit']}")
        if not isinstance(row["value"], (int, float)):
            raise RuntimeError(f"{spec['name']} is not a finite number")
        out[spec["name"]] = {"value": row["value"], "unit": spec["unit"]}
    return out, emitted


def print_report(args, report, emitted, checks, env):
    log(f"== {args.workload} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds}")
    for row in emitted.values():
        log(f"  {row['name']:<36} {row['value']:>16.6f} {row['unit']:<6} "
            f"{row['better']:<6} {row['statistic']}")
    value = {name: row["value"] for name, row in emitted.items()}
    for budget in report["budgets"]:
        parts = " + ".join(f"{name} {value[name]:.4f}" for name in budget["parts"])
        log(f"  budget: {budget['total']} {value[budget['total']]:.4f} = {parts}")
    if "bench.traced_rps_ratio" in value:
        log("  tracing overhead: traced / untraced rounds_per_s = "
            f"{value['bench.traced_rps_ratio']:.4f}")
    for check in checks:
        log(f"  check {'PASS' if check['passed'] else 'FAIL'} {check['name']}: "
            f"{check['detail']}")
    log("  environment (recorded, never compared): " +
        ", ".join(f"{k}={v}" for k, v in env.items()))


def save_report(args, full):
    """The full report (every row with its direction and statistic, the
    checks, the environment) beside the span logs, for later inspection."""
    out = BUILD_DIR / "reports"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out / name).write_text(json.dumps(full, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few rounds only (self-test)")
    args = parser.parse_args(argv)

    try:
        build()
        contract = load_contract()
        stat_before = read_proc_stat()
        report = run_binary(args)
        stat_after = read_proc_stat()
        values = {m["name"]: m["value"] for m in report["metrics"]}
        budget_checks = verify_budgets(report, values)
        for check in budget_checks:
            report["attempted"] += 1
            report["failed"] += 0 if check["passed"] else 1
        checks = report["checks"] + budget_checks
        metrics, emitted = result_metrics(report, contract, args.trace)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.CalledProcessError) as err:
        log(f"perfbench: {err}")
        return 1

    env = dict(report["notes"])
    if stat_before and stat_after:
        env["host_steal_share"] = f"{steal_share(stat_before, stat_after):.4f}"
    print_report(args, report, emitted, checks, env)
    correct = all(c["passed"] for c in checks) and report["failed"] == 0
    save_report(args, {"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "correct": correct,
                       "attempted": report["attempted"], "failed": report["failed"],
                       "metrics": list(emitted.values()), "checks": checks,
                       "budgets": report["budgets"], "environment": env})
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
