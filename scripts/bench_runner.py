#!/usr/bin/env python3
"""Canonical perf-trajectory runner: run the pinned bench suite, merge the
per-bench BENCH json files into one suite document, and gate against the
newest prior suite document.

    scripts/bench_runner.py --build-dir build --out-dir results
    scripts/bench_runner.py --full            # paper-scale suite
    scripts/bench_runner.py --all             # also replay the txt benches
    scripts/bench_runner.py --self-test       # exercise the gate offline

Every bench binary emits ``BENCH_<run_id>_<bench>.json`` (schema 2, one
file per bench so two runs on the same day can never clobber each other).
This runner owns the run id: it exports ``DCS_RUN_ID`` (UTC date, or
``--run-id``) once per invocation so every bench in a suite shares it,
then merges the per-bench files into ``BENCH_<run_id>.json``:

    {"schema": 2, "kind": "suite", "run_id": ..., "suite": "scaled"|"full",
     "meta": {...},                       # host metadata from the benches
     "benches": {<bench>: <per-bench doc>, ...}}

Gating rules (per metric):
  * ``dir`` is "higher" or "lower"; "info" metrics are never gated.
  * threshold_pct = max(10, 2 * noise_pct) using the *recorded* run noise;
    a timing metric that recorded no noise at all is a single-shot number
    and gets a wide 35% band instead — shared CI runners genuinely swing
    that much on one-off millisecond timings.
  * metrics marked ``deterministic`` (seeded, timing-free) must reproduce
    on any machine and are gated everywhere; timing metrics are gated only
    when the baseline was recorded on the same CPU model, so a committed
    baseline from one box never fails CI on another for clock reasons.

Exit status: nonzero iff a bench fails, the merged document is invalid, or
a gated metric regresses past its threshold (suppress with --no-gate).
"""

import argparse
import datetime
import json
import os
import re
import subprocess
import sys

FLOOR_PCT = 10.0  # floor when the bench recorded its own run noise
UNRECORDED_FLOOR_PCT = 35.0  # single-shot timings with no recorded noise


class Bench:
    def __init__(self, name, binary, scaled_args=(), full_args=()):
        self.name = name
        self.binary = binary  # path relative to the build dir
        self.scaled_args = list(scaled_args)
        self.full_args = list(full_args)

    def args(self, full):
        return self.full_args if full else self.scaled_args


# The pinned suite. Scaled args keep the whole run CI-sized; --full lifts
# DCS_FULL and the per-bench overrides to paper scale.
SUITE = [
    Bench("pipeline_throughput", "bench/pipeline_throughput"),
    Bench("fig9_update_time", "bench/fig9_update_time"),
    Bench("window_costs", "bench/window_costs"),
    Bench("distributed_costs", "bench/distributed_costs"),
    Bench("detection_quality", "bench/detection_quality",
          scaled_args=["--trials", "3"], full_args=["--trials", "5"]),
    Bench("overload_shed", "bench/overload_shed",
          scaled_args=["--deltas", "25", "--iters", "400000"],
          full_args=["--deltas", "60", "--iters", "2000000"]),
    Bench("obs_overhead", "bench/obs_overhead"),
    Bench("query_serving", "bench/query_serving",
          scaled_args=["--deltas", "16", "--cache-iters", "200"],
          full_args=["--deltas", "60", "--target-rps", "2000",
                     "--cache-iters", "2000"]),
    Bench("ingest_reactor", "bench/ingest_reactor",
          scaled_args=["--peers", "48", "--epochs", "3"],
          full_args=["--peers", "512", "--epochs", "5"]),
    Bench("federation_merge", "bench/federation_merge",
          scaled_args=["--sites", "16", "--epochs", "4", "--max-leaves", "4"],
          full_args=["--sites", "64", "--epochs", "8", "--max-leaves", "8"]),
    Bench("chaos_convergence", "tools/dcs_chaos",
          scaled_args=["--sites", "3", "--u", "8000", "--epoch-updates",
                       "400", "--seed", "7", "--loris", "1", "--stall", "1",
                       "--oversize", "1"],
          full_args=["--sites", "4", "--u", "20000", "--seed", "7"]),
]

# The txt benches reproduce.sh historically replayed; --all reruns them
# (stdout -> <out-dir>/<bench>[_full].txt) before the json suite.
TXT_BENCHES = [
    "fig8a_recall", "fig8b_relative_error", "fig9_update_time",
    "table2_costs", "space_analysis", "ablation_rs", "ablation_stopping",
    "ablation_deletions", "ablation_correction", "detection_quality",
    "distributed_costs", "baseline_comparison", "window_costs",
    "pipeline_throughput", "obs_overhead",
]


def sanitize(token):
    """Mirror of the C++ filename sanitizer in bench_report.cpp."""
    out = re.sub(r"[^A-Za-z0-9._-]", "-", token)
    return out or "unnamed"


def utc_run_id():
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d")


def validate_bench_doc(doc, path):
    errors = []
    if doc.get("schema") != 2:
        errors.append("schema != 2")
    for key in ("bench", "run_id", "meta", "results"):
        if key not in doc:
            errors.append(f"missing '{key}'")
    for section, metrics in doc.get("results", {}).items():
        if not isinstance(metrics, dict):
            errors.append(f"section '{section}' is not an object")
            continue
        for key, metric in metrics.items():
            if not isinstance(metric, dict) or "value" not in metric:
                errors.append(f"{section}.{key} has no value")
            elif metric.get("dir") not in ("higher", "lower", "info"):
                errors.append(f"{section}.{key} has bad dir")
    if errors:
        raise SystemExit(f"bench_runner: invalid {path}: " + "; ".join(errors))


def run_suite(args, run_id):
    env = dict(os.environ)
    env["DCS_RUN_ID"] = run_id
    if args.full:
        env["DCS_FULL"] = "1"
    else:
        env.pop("DCS_FULL", None)

    benches = {}
    meta = {}
    for bench in SUITE:
        binary = os.path.join(args.build_dir, bench.binary)
        if not os.path.exists(binary):
            raise SystemExit(f"bench_runner: missing binary {binary} "
                             "(build the repo first)")
        cmd = [binary] + bench.args(args.full) + ["--json-dir", args.out_dir]
        print(f"== {bench.name} ==", flush=True)
        result = subprocess.run(cmd, env=env)
        if result.returncode != 0:
            raise SystemExit(f"bench_runner: {bench.name} exited "
                             f"{result.returncode}")
        path = os.path.join(
            args.out_dir,
            f"BENCH_{sanitize(run_id)}_{sanitize(bench.name)}.json")
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as error:
            raise SystemExit(f"bench_runner: {bench.name} produced no "
                             f"readable report at {path}: {error}")
        validate_bench_doc(doc, path)
        benches[doc["bench"]] = doc
        if not meta:
            meta = dict(doc.get("meta", {}))
    return {
        "schema": 2,
        "kind": "suite",
        "run_id": run_id,
        "suite": "full" if args.full else "scaled",
        "meta": meta,
        "benches": benches,
    }


def run_txt_benches(args):
    env = dict(os.environ)
    if args.full:
        env["DCS_FULL"] = "1"
    else:
        env.pop("DCS_FULL", None)
    suffix = "_full" if args.full else ""
    for name in TXT_BENCHES:
        binary = os.path.join(args.build_dir, "bench", name)
        print(f"== {name} ==", flush=True)
        out_path = os.path.join(args.out_dir, f"{name}{suffix}.txt")
        with open(out_path, "w", encoding="utf-8") as out:
            result = subprocess.run([binary], env=env, stdout=subprocess.PIPE,
                                    text=True)
            out.write(result.stdout)
        sys.stdout.write(result.stdout)
        if result.returncode != 0:
            raise SystemExit(f"bench_runner: {name} exited "
                             f"{result.returncode}")
    name = "micro_ops"
    print(f"== {name} (google-benchmark) ==", flush=True)
    out_path = os.path.join(args.out_dir, f"{name}{suffix}.txt")
    with open(out_path, "w", encoding="utf-8") as out:
        result = subprocess.run(
            [os.path.join(args.build_dir, "bench", name),
             "--benchmark_min_time=0.1"],
            env=env, stdout=subprocess.PIPE, text=True)
        out.write(result.stdout)
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        raise SystemExit(f"bench_runner: {name} exited {result.returncode}")


def find_baseline(out_dir, current):
    """Newest prior merged suite document of the same suite kind."""
    candidates = []
    try:
        names = os.listdir(out_dir)
    except OSError:
        return None, None
    for name in names:
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(out_dir, name)
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError):
            continue
        if doc.get("kind") != "suite":
            continue  # a per-bench file, not a merged suite
        if doc.get("suite") != current["suite"]:
            continue
        if doc.get("run_id") == current["run_id"]:
            continue
        candidates.append((os.path.getmtime(path), path, doc))
    if not candidates:
        return None, None
    candidates.sort(key=lambda c: c[0])
    _, path, doc = candidates[-1]
    return path, doc


def iter_metrics(suite_doc):
    for bench_name, bench_doc in sorted(suite_doc.get("benches", {}).items()):
        for section, metrics in bench_doc.get("results", {}).items():
            for key, metric in metrics.items():
                yield bench_name, section, key, metric


def compare(current, baseline):
    """Diff two merged suite documents.

    Returns (rows, regressions). Each row is
    (name, base_value, cur_value, delta_pct, threshold_pct, status) with
    status one of OK / REGRESS / IMPROVED / SKIP(cpu) / new / gone. A
    gated baseline metric the current run no longer reports is a ``gone``
    row, listed so a deleted metric is visible, but not a regression.
    """
    cpu_match = (current.get("meta", {}).get("cpu") ==
                 baseline.get("meta", {}).get("cpu"))
    base_index = {}
    for bench, section, key, metric in iter_metrics(baseline):
        base_index[(bench, section, key)] = metric

    rows = []
    regressions = []
    for bench, section, key, metric in iter_metrics(current):
        base = base_index.pop((bench, section, key), None)
        direction = metric.get("dir", "info")
        if direction == "info":
            continue
        name = f"{bench}/{section}/{key}"
        if base is None:
            rows.append((name, None, metric["value"], None, None, "new"))
            continue
        deterministic = bool(metric.get("deterministic")) and bool(
            base.get("deterministic"))
        if not deterministic and not cpu_match:
            rows.append((name, base["value"], metric["value"], None, None,
                         "SKIP(cpu)"))
            continue
        noise = max(float(metric.get("noise_pct", -1.0)),
                    float(base.get("noise_pct", -1.0)))
        if deterministic:
            # Seeded, timing-free: any drift at all is a real change, but we
            # keep the recorded-noise path so a bench may opt out.
            threshold = max(0.0, 2.0 * noise) if noise >= 0 else 0.0
        elif noise >= 0:
            threshold = max(FLOOR_PCT, 2.0 * noise)
        else:
            threshold = UNRECORDED_FLOOR_PCT
        base_value = float(base["value"])
        cur_value = float(metric["value"])
        if base_value == 0.0:
            delta_pct = 0.0 if cur_value == 0.0 else float("inf")
        else:
            delta_pct = (cur_value - base_value) / abs(base_value) * 100.0
        worse = -delta_pct if direction == "higher" else delta_pct
        if worse > threshold:
            status = "REGRESS"
            regressions.append(name)
        elif -worse > threshold:
            status = "IMPROVED"
        else:
            status = "OK"
        rows.append((name, base_value, cur_value, delta_pct, threshold,
                     status))
    for (bench, section, key), base in sorted(base_index.items()):
        if base.get("dir", "info") != "info":
            rows.append((f"{bench}/{section}/{key}", base["value"], None,
                         None, None, "gone"))
    return rows, regressions


def fmt(value):
    if value is None:
        return "-"
    if value == float("inf"):
        return "inf"
    return f"{value:.4g}"


def print_table(rows, baseline_path):
    print(f"\n-- perf delta vs {baseline_path} --")
    header = ("metric", "base", "current", "delta%", "thresh%", "status")
    widths = [max(len(header[0]), max((len(r[0]) for r in rows), default=0)),
              10, 10, 8, 8, 9]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for name, base, cur, delta, threshold, status in rows:
        print("  ".join([
            name.ljust(widths[0]),
            fmt(base).ljust(widths[1]),
            fmt(cur).ljust(widths[2]),
            fmt(delta).ljust(widths[3]),
            fmt(threshold).ljust(widths[4]),
            status.ljust(widths[5]),
        ]))


def gate(current, out_dir, baseline_path_override=None):
    """Returns the number of regressions against the chosen baseline."""
    if baseline_path_override:
        with open(baseline_path_override, encoding="utf-8") as f:
            baseline = json.load(f)
        baseline_path = baseline_path_override
    else:
        baseline_path, baseline = find_baseline(out_dir, current)
    if baseline is None:
        print("bench_runner: no prior suite baseline found; nothing to gate")
        return 0
    rows, regressions = compare(current, baseline)
    print_table(rows, baseline_path)
    if regressions:
        print(f"\nbench_runner: {len(regressions)} regression(s):")
        for name in regressions:
            print(f"  REGRESS {name}")
    else:
        print("\nbench_runner: no regressions")
    return len(regressions)


# ---------------------------------------------------------------------------
# Self test: fabricate suite documents and check every gate rule offline.

def _suite_doc(cpu, metrics):
    """metrics: {name: (value, dir, noise_pct, deterministic)}"""
    results = {}
    for key, (value, direction, noise, deterministic) in metrics.items():
        metric = {"value": value, "dir": direction}
        if noise is not None:
            metric["noise_pct"] = noise
        if deterministic:
            metric["deterministic"] = True
        results[key] = metric
    return {
        "schema": 2, "kind": "suite", "run_id": "st", "suite": "scaled",
        "meta": {"cpu": cpu},
        "benches": {"fake": {"schema": 2, "bench": "fake", "run_id": "st",
                             "meta": {"cpu": cpu},
                             "results": {"main": results}}},
    }


def self_test():
    failures = []

    def check(label, condition):
        print(f"self-test: {label}: {'ok' if condition else 'FAIL'}")
        if not condition:
            failures.append(label)

    base = _suite_doc("cpuA", {
        "throughput": (100.0, "higher", 5.0, False),
        "latency": (50.0, "lower", None, False),
        "noisy": (10.0, "lower", 30.0, False),
        "recall": (1.0, "higher", 0.0, True),
        "debug_count": (7.0, "info", None, False),
    })

    # 1. Clean rerun: identical numbers gate green.
    rows, regressions = compare(base, base)
    check("identical suites pass", not regressions)

    # 2. Timing regression on the same CPU is caught.
    worse = _suite_doc("cpuA", {
        "throughput": (80.0, "higher", 5.0, False),   # -20% past 10% floor
        "latency": (50.0, "lower", None, False),
        "noisy": (10.0, "lower", 30.0, False),
        "recall": (1.0, "higher", 0.0, True),
        "debug_count": (7.0, "info", None, False),
    })
    rows, regressions = compare(worse, base)
    check("timing regression detected",
          regressions == ["fake/main/throughput"])
    print_table(rows, "<self-test baseline>")

    # 3. The same timing change on a different CPU is skipped...
    cross = _suite_doc("cpuB", {
        "throughput": (80.0, "higher", 5.0, False),
        "recall": (1.0, "higher", 0.0, True),
    })
    rows, regressions = compare(cross, base)
    check("cross-cpu timing skipped", not regressions and any(
        status == "SKIP(cpu)" for *_rest, status in rows))

    # 4. ...but a deterministic metric still gates cross-machine.
    cross_det = _suite_doc("cpuB", {
        "throughput": (80.0, "higher", 5.0, False),
        "recall": (0.99, "higher", 0.0, True),
    })
    rows, regressions = compare(cross_det, base)
    check("deterministic drift gated cross-cpu",
          regressions == ["fake/main/recall"])

    # 4b. A single-shot timing with no recorded noise gets the wide band:
    # +26% passes, +60% still fails.
    single_shot_ok = _suite_doc("cpuA", {"latency": (63.0, "lower", None,
                                                     False)})
    rows, regressions = compare(single_shot_ok, base)
    check("unrecorded-noise timing gets wide band", not regressions)
    single_shot_bad = _suite_doc("cpuA", {"latency": (80.0, "lower", None,
                                                      False)})
    rows, regressions = compare(single_shot_bad, base)
    check("unrecorded-noise timing still gated",
          regressions == ["fake/main/latency"])

    # 5. A change inside 2x recorded noise is not a regression.
    noisy = _suite_doc("cpuA", {
        "throughput": (100.0, "higher", 5.0, False),
        "latency": (50.0, "lower", None, False),
        "noisy": (15.0, "lower", 30.0, False),        # +50% < 2*30%
        "recall": (1.0, "higher", 0.0, True),
        "debug_count": (7.0, "info", None, False),
    })
    rows, regressions = compare(noisy, base)
    check("noise-band change tolerated", not regressions)

    # 6. Info metrics are never gated, however large the swing.
    info = _suite_doc("cpuA", {
        "throughput": (100.0, "higher", 5.0, False),
        "debug_count": (70000.0, "info", None, False),
    })
    rows, regressions = compare(info, base)
    check("info metrics ignored", not regressions)

    # 7. Improvements are labelled, not flagged.
    better = _suite_doc("cpuA", {
        "throughput": (150.0, "higher", 5.0, False),
    })
    rows, regressions = compare(better, base)
    check("improvement labelled", not regressions and any(
        status == "IMPROVED" for *_rest, status in rows))

    # 8. Metrics absent from the baseline are 'new', not errors.
    rows, regressions = compare(
        _suite_doc("cpuA", {"brand_new": (1.0, "lower", None, False)}), base)
    check("new metric tolerated", not regressions)

    # 9. Gated baseline metrics missing from the current run are listed as
    # 'gone', not failures; a gone info metric is not listed.
    rows, regressions = compare(
        _suite_doc("cpuA", {"throughput": (100.0, "higher", 5.0, False)}),
        base)
    gone = sorted(name for name, *_rest, status in rows if status == "gone")
    check("gone metrics listed, not failed", not regressions and gone == [
        "fake/main/latency", "fake/main/noisy", "fake/main/recall"])

    if failures:
        print(f"self-test: {len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("self-test: all checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Run the pinned bench suite and gate the perf trajectory")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--run-id", default=None,
                        help="run id for every bench (default: DCS_RUN_ID "
                             "env, else today's UTC date)")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale suite (sets DCS_FULL=1)")
    parser.add_argument("--all", action="store_true",
                        help="also replay the txt benches into --out-dir")
    parser.add_argument("--baseline", default=None,
                        help="explicit baseline suite json (default: newest "
                             "prior suite in --out-dir)")
    parser.add_argument("--no-gate", action="store_true",
                        help="record the suite but never fail on deltas")
    parser.add_argument("--self-test", action="store_true",
                        help="exercise the gating rules offline and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    run_id = args.run_id or os.environ.get("DCS_RUN_ID") or utc_run_id()
    os.makedirs(args.out_dir, exist_ok=True)

    if args.all:
        run_txt_benches(args)

    current = run_suite(args, run_id)
    merged_path = os.path.join(args.out_dir,
                               f"BENCH_{sanitize(run_id)}.json")
    regressions = gate(current, args.out_dir, args.baseline)
    with open(merged_path, "w", encoding="utf-8") as f:
        json.dump(current, f, indent=2)
        f.write("\n")
    print(f"\nbench_runner: suite written to {merged_path}")
    if regressions and not args.no_gate:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
