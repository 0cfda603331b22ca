#!/usr/bin/env python3
"""Fleet end-to-end benchmark: the one command.

Builds bench/e2e into bench/e2e/build on first use (its own CMake project
over the repository's sources) and runs the e2e_fleet program, one process
per workload run.

  # every workload once, seed 1: prints `workload metric value unit`
  python3 bench/e2e/run.py --seed 1
  python3 bench/e2e/run.py --seed 1 --repeat 3 --out results_a
  python3 bench/e2e/run.py --seed 1 --trace 1         # per-layer budget
  python3 bench/e2e/run.py --compare results_a results_b

  # one run, ending in one JSON result line (the BENCHMARK.json contract)
  python3 bench/e2e/run.py --workload fleet_steady --seed 3 --seconds 24 \\
      --trace 0

  # every workload with a 3 s window, correctness only (the e2e_smoke test)
  python3 bench/e2e/run.py --smoke
"""

import argparse
import datetime
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(HERE, "build")
WORKLOADS = ["fleet_steady", "paper_bulk", "flood_detect", "dashboard_reads"]
RUN_TIMEOUT_S = 170
# Service limit on the verdict tail (README: "The 250 ms limit").
VERDICT_P99_LIMIT_MS = 250.0

# Regression bounds (share of the parent's median) and directions for the
# metrics BENCHMARK.json does not gate because they exist on some workloads
# only. Counts may never increase.
EXTRA_METRICS = {
    "gen_lag_p99_ms": ("lower", 0.10),
    "time_to_alert_p50_ms": ("lower", 0.10),
    "staleness_p50_ms": ("lower", 0.10),
    "staleness_p99_ms": ("lower", 0.10),
    "missed_attacks": ("lower", 0.0),
    "false_alerts": ("lower", 0.0),
    "epochs_lost": ("lower", 0.0),
    "oracle_mismatches": ("lower", 0.0),
}


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_contract():
    path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def metric_rules():
    """name -> (better, bound) for every metric --compare judges."""
    rules = dict(EXTRA_METRICS)
    contract = load_contract()
    if contract:
        for metric in contract["end_to_end"]:
            rules[metric["name"]] = (metric["better"], metric["bound"])
    return rules


def ensure_binary():
    """Configure (once) and build e2e_fleet in BUILD_DIR; its path."""
    if not os.path.exists(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are not next to bench/e2e")
    out = sys.stderr
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=out, stderr=out) != 0:
            fail("cmake configure failed")
    build = ["cmake", "--build", BUILD_DIR, "--target", "e2e_fleet",
             "-j", str(os.cpu_count() or 2)]
    if subprocess.call(build, stdout=out, stderr=out) != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "e2e_fleet")


def run_one(binary, workload, seed, seconds, out_dir, run_id, trace,
            echo=True):
    """Run one workload; returns the e2e_fleet result dict, or None."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", out_dir, "--run-id", run_id]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s seed %s timed out" % (workload, seed),
              file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if echo:
        for line in lines[:-1] if done.returncode == 0 else lines:
            print(line)
    if done.returncode != 0 or not lines:
        print("run.py: %s seed %s exited %d" % (workload, seed,
                                                 done.returncode),
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print("run.py: %s produced no result line" % workload, file=sys.stderr)
        return None


def contract_run(args):
    contract = load_contract()
    if contract is None:
        fail("BENCHMARK.json not found at the repository root")
    if args.workload not in WORKLOADS:
        fail("unknown workload %r" % args.workload)
    binary = args.binary or ensure_binary()
    out_dir = os.path.join(BUILD_DIR, "results", "contract")
    os.makedirs(out_dir, exist_ok=True)
    traced = args.trace == 1
    run_id = "contract-s%d-t%d" % (args.seed, args.trace)
    result = run_one(binary, args.workload, args.seed, args.seconds, out_dir,
                     run_id, args.trace)
    if result is None or not result.get("correct"):
        sys.exit(1)
    wanted = contract["per_layer" if traced else "end_to_end"]
    measured = result["layer" if traced else "e2e"]
    metrics = {}
    for metric in wanted:
        value = measured.get(metric["name"], {}).get("value")
        if value is None:
            fail("%s did not measure %s" % (args.workload, metric["name"]), 1)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def suite_run(args):
    binary = args.binary or ensure_binary()
    run_id = args.run_id or datetime.datetime.now(
        datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    out_dir = os.path.abspath(args.out or os.path.join(
        BUILD_DIR, "results", run_id))
    os.makedirs(out_dir, exist_ok=True)
    ok = True
    started = time.time()
    for rep in range(args.repeat):
        for name in WORKLOADS:
            result = run_one(binary, name, args.seed, args.seconds, out_dir,
                             "%s-r%d" % (run_id, rep), args.trace)
            ok = ok and result is not None and result.get("correct", False)
            p99 = (result or {}).get("e2e", {}).get("verdict_p99_ms", {})
            if (p99.get("value") or 0) > VERDICT_P99_LIMIT_MS:
                print("# %s verdict_p99_ms %.1f ms is over the %.0f ms limit"
                      % (name, p99["value"], VERDICT_P99_LIMIT_MS))
    print("# %d run(s) in %.0f s; BENCH json in %s" % (
        args.repeat * len(WORKLOADS), time.time() - started, out_dir))
    sys.exit(0 if ok else 1)


def smoke_run(args):
    """Every workload with a short window: oracle and json checks only.
    3 s rather than 2 so flood_detect still fits one whole flood; e2e_fleet
    shortens the warm-up to match."""
    binary = args.binary or ensure_binary()
    out_dir = os.path.abspath(args.out or os.path.join(
        BUILD_DIR, "results", "smoke"))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    contract = load_contract() or {"end_to_end": [], "per_layer": []}
    failures = []
    for name in WORKLOADS:
        # Trace one workload of each topology: federated and single.
        traced = name in ("fleet_steady", "paper_bulk")
        result = run_one(binary, name, args.seed, 3, out_dir, "smoke",
                         1 if traced else 0, echo=False)
        if result is None or not result.get("correct"):
            failures.append(name + ": oracle, epoch ledger or detection")
            continue
        wanted = contract["end_to_end"] + (contract["per_layer"] if traced
                                           else [])
        measured = dict(result["e2e"], **result["layer"])
        for metric in wanted:
            if measured.get(metric["name"], {}).get("value") is None:
                failures.append("%s: no %s" % (name, metric["name"]))
        bench = os.path.join(out_dir, "BENCH_smoke_e2e_%s.json" % name)
        try:
            with open(bench) as f:
                report = json.load(f)
            if report.get("schema") != 2 or "e2e" not in report["results"]:
                failures.append(name + ": BENCH json lacks schema 2 / e2e")
        except (OSError, ValueError) as error:
            failures.append("%s: BENCH json: %s" % (name, error))
    for failure in failures:
        print("e2e_smoke: " + failure, file=sys.stderr)
    print("e2e_smoke: %s" % ("FAILED" if failures else "OK"))
    sys.exit(1 if failures else 0)


def load_results(directory):
    """(workload, metric) -> [values in run-id order] from BENCH json, and
    metric -> direction ("lower" or "higher")."""
    rows, directions = {}, {}
    paths = sorted(glob.glob(os.path.join(directory, "**",
                                          "BENCH_*_e2e_*.json"),
                             recursive=True))
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        workload = report["meta"]["workload"]
        for metric, value in report["results"].get("e2e", {}).items():
            rows.setdefault((workload, metric), []).append(value["value"])
            directions[metric] = value["dir"]
    return rows, directions


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args):
    """Parent A vs change B per (metric, workload), by each metric's bound
    and the pair rule: >= 10 pairs, >= 9/10 wins, and a median gap wider
    than the parent's interquartile spread. A metric without a bound (info)
    is never a regression, but can still show a gain."""
    parent, directions = load_results(args.compare[0])
    change, _ = load_results(args.compare[1])
    rules = metric_rules()
    regressions = 0
    print("%-16s %-22s %12s %25s %12s %25s  %s" % (
        "workload", "metric", "A median", "A q1..q3", "B median",
        "B q1..q3", "verdict"))
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        a, b = parent[key], change[key]
        a1, a2, a3 = quartiles(a)
        b1, b2, b3 = quartiles(b)
        row = "%-16s %-22s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g  " % (
            workload, metric, a2, a1, a3, b2, b1, b3)
        better, bound = rules.get(metric, (directions[metric], None))
        sign = 1.0 if better == "lower" else -1.0
        worse_by = sign * (b2 - a2)
        if bound is None:
            verdict = "info"
        elif bound == 0.0:
            verdict = "REGRESSION" if worse_by > 0 else "ok"
        else:
            verdict = ("REGRESSION" if worse_by > bound * abs(a2)
                       else "ok")
        pairs = list(zip(a, b))
        wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
        if (verdict != "REGRESSION" and len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                and -worse_by > (a3 - a1)):
            verdict = "GAIN (%d/%d pairs)" % (wins, len(pairs))
        if verdict == "REGRESSION":
            regressions += 1
        print(row + verdict)
    sys.exit(1 if regressions else 0)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload (contract mode)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced runs with the per-layer budget (in "
                             "contract mode: report the per-layer metrics)")
    parser.add_argument("--seed", type=int, default=1)
    contract = load_contract() or {}
    parser.add_argument("--seconds", type=float,
                        default=contract.get("run_seconds", 24),
                        help="measured window per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="directory for BENCH json and spans")
    parser.add_argument("--run-id", help="run id in the BENCH json names")
    parser.add_argument("--binary", help="use this e2e_fleet, do not build")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.repeat < 1 or args.seconds <= 0:
        fail("--repeat and --seconds must be positive")
    if args.compare:
        compare(args)
    elif args.smoke:
        smoke_run(args)
    elif args.workload:
        contract_run(args)
    else:
        suite_run(args)


if __name__ == "__main__":
    main()
