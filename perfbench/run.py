"""palinscan benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; BENCHMARK.json there lists the workloads
and metrics. The inputs are made here from --seed (see genome.py), then
worker.py runs the program in fresh processes: with --trace 0, SETUP_RUNS of
them, the last of which also runs the timed loop; with --trace 1, one that
runs the loop untraced and then traced. Every op's output is checked
(checks.py). The last stdout line is the JSON result; the lines before it
name the workload's own throughput and the machine the figures come from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import genome
import tracer
import worker

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 3
RUN_DEADLINE_S = 170.0
GENOME_LENGTH = 10_000_000
# Typical time of worker.probe on the unloaded 2-core Xeon VM it was tuned on.
PROBE_REFERENCE_S = 0.010
# the stages ROADMAP item 1 times on its own
STAGES = ("markov.generate_sequence", "palindrome.find_palindromes",
          "palindrome.score_event", "scan.window_scores", "markov.estimate_model",
          "seqio.parse_fasta", "scan.solve_tilt", "scan.overshoot_nu",
          "scan.p_value", "scan.threshold_for_alpha", "cli.main")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def make_inputs(workload: str, seed: int, workdir: Path) -> tuple[list[str], dict]:
    """Worker arguments for the inputs, and the context the checks need."""
    if workload != "genome_scan":
        return [], {}
    g = genome.genome(GENOME_LENGTH, seed)
    fasta = workdir / "genome.fa"
    genome.write_fasta(fasta, g.bases, f"bench-{seed}")
    context = {"clusters": g.clusters, "length": int(g.bases.size),
               "window": worker.WINDOW,
               "lambda0": genome.markov_rate(*genome.fitted_model(g.bases),
                                             worker.HALF_LENGTH)}
    return ["--input", str(fasta)], context


def run_worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def work_units(workload: str) -> tuple[str, str, float]:
    """(name, unit, amount per op) of the workload's own throughput."""
    return {
        "genome_scan": ("scan_mbp_per_s", "Mbp/s", GENOME_LENGTH / 1e6),
        "threshold_calibration": ("thresholds_per_s", "1/s", 1.0),
        "power_study": ("replicates_per_s", "1/s", float(worker.POWER_REPLICATES)),
    }[workload]


def cycle_s(records, key: str = "scaled_s") -> float:
    """Seconds for one pass over the op list, timing each op by its median.

    Each op repeats with identical inputs, so the median of its repeats
    discards the odd op slowed by other load on the machine. `key` picks
    the op times scaled by machine speed ("scaled_s") or as measured ("s").
    """
    times = {}
    for r in records:
        times.setdefault(r["label"], []).append(r[key])
    return sum(statistics.median(t) for t in times.values())


def machine_speed(probes: list[float]) -> float:
    """How many times slower than PROBE_REFERENCE_S the probe ran.

    The shared host's speed drifts by tens of percent within minutes, for
    palinscan and the probe alike; dividing each op's time by the factor
    measured right after it removes most of the drift, while a change in
    palinscan's own cost passes through unchanged.
    """
    return statistics.median(probes) / PROBE_REFERENCE_S


def nu_se_max(workload: str, records, context: dict) -> float:
    """Largest Monte Carlo standard error of nu among the run's p-values."""
    if workload == "genome_scan":
        values = [json.loads(r["out"]).get("nu_se", 0.0) for r in records if r["out"]]
    elif workload == "threshold_calibration":
        values = [v["nu_se"] for vs in context["verify"].values() for v in vs]
    else:
        values = []
    return float(max(values, default=0.0))


def span_totals(report: dict, labels=None) -> dict[str, dict]:
    """Traced totals per wrapped function for one pass over the op list
    (or over the ops with the given labels): each op's spans are averaged
    over its repeats. Functions never called read 0."""
    repeats = {}
    for r in report["traced"]["records"]:
        repeats[r["label"]] = repeats.get(r["label"], 0) + 1
    totals = {name: dict.fromkeys(tracer.FIELDS, 0) for name in report["wrapped"]}
    for label, spans in report["spans"].items():
        if labels is None or label in labels:
            for name, fields in spans.items():
                for k, v in fields.items():
                    totals[name][k] += v / repeats[label]
    return totals


def print_stages(report: dict) -> None:
    """Calls per op and mean time per call of the ROADMAP stages."""
    for label in report["spans"]:
        for name, t in span_totals(report, {label}).items():
            if name in STAGES and t["calls"]:
                print(f"stage {label:22s} {name:28s} {t['calls']:9.1f} calls "
                      f"{1e3 * t['s'] / t['calls']:10.3f} ms/call")


def layer_metrics(per_layer: list[dict], report: dict, nu_se: float) -> tuple[dict, list[str]]:
    """Per-layer values for one pass over the op list, and absent names.

    A metric whose function the package no longer has reads 0 and is
    listed as absent, so a refactor cannot crash the traced run.
    """
    spans = span_totals(report)

    def per_threshold(name):
        thresholds = spans["scan.threshold_for_alpha"]["calls"]
        return spans[name]["calls"] / thresholds if thresholds else 0.0

    def events_per_mbp():
        span = spans["palindrome.find_palindromes"]
        return span["events"] / (span["bases"] / 1e6) if span["bases"] else 0.0

    derived = {
        "trace.overhead_pct": lambda: 100.0 * (
            cycle_s(report["traced"]["records"]) / cycle_s(report["untraced"]["records"]) - 1.0),
        "scan.p_value.nu_se_max": lambda: nu_se,
        "trace.absent": lambda: 0,  # filled in below, once all names are known
        "scan.p_value.calls_per_threshold": lambda: per_threshold("scan.p_value"),
        "mgf.score_mgf.calls_per_threshold": lambda: per_threshold("mgf.score_mgf"),
        "palindrome.find_palindromes.events_per_mbp": events_per_mbp,
    }
    values, absent = {}, list(report["absent"])
    for metric in per_layer:
        name = metric["name"]
        function, _, field = name.rpartition(".")
        try:
            value = derived[name]() if name in derived else spans[function][field]
        except KeyError:
            absent.append(name)
            value = 0.0
        values[name] = {"value": value, "unit": metric["unit"]}
    absent = sorted(set(absent))
    if "trace.absent" in values:
        values["trace.absent"]["value"] = len(absent)
    return values, absent


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset") for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "palinscan": source_version(),
    }


def source_version() -> str:
    """git commit of the checkout, or a hash of the package sources."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            return f"git {lines[1]}"
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "palinscan").rglob("*.py")):
        digest.update(path.read_bytes())
    return f"sha256 {digest.hexdigest()[:16]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # SIGTERM unwinds like an exception, so the running worker is killed and
    # reaped, and the work directory removed, before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "palinscan" / "__init__.py").is_file():
        return fail(f"no palinscan sources under {ROOT / 'src'}")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        extra, context = make_inputs(args.workload, args.seed, workdir)
        if args.trace:
            report = run_worker(args, extra, deadline)
            records = report["untraced"]["records"] + report["traced"]["records"]
        else:
            setups = [run_worker(args, [*extra, "--setup-only"], deadline)
                      for _ in range(SETUP_RUNS - 1)]
            report = run_worker(args, extra, deadline)
            setups.append(report)
            records = report["timed"]["records"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(f"{args.workload} did not run: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for r in records:
        r["scaled_s"] = r["s"] / machine_speed(r["probes"])
    context["verify"] = report.get("verify", {})
    problems = checks.problems_by_record(args.workload, records, context)
    failed = sum(1 for p in problems if p)
    for r, p in zip(records, problems):
        if p:
            print(f"FAILED {r['label']}: {'; '.join(p)}")
    nu_se = nu_se_max(args.workload, records, context)

    if args.trace:
        print_stages(report)
        metrics, absent = layer_metrics(bench["per_layer"], report, nu_se)
        if absent:
            print(f"absent from the package: {', '.join(absent)}")
    else:
        name, unit, per_op = work_units(args.workload)
        n_ops = len({r["label"] for r in records})
        ops_per_s = n_ops / cycle_s(records, "s")
        setup_s = statistics.median(r["setup_s"] for r in setups)
        print(f"{args.workload}: {len(records)} ops in {report['timed']['elapsed']:.2f} s; "
              f"as measured, {name} {ops_per_s * per_op:.4f} {unit} and setup_s "
              f"{setup_s:.3f} s; machine speed factor "
              f"{statistics.median(machine_speed(r['probes']) for r in records):.3f}; "
              f"nu_se max {nu_se:.3g}")
        values = {"scaled_ops_per_s": n_ops / cycle_s(records),
                  "setup_s": statistics.median(r["setup_s"] / machine_speed(r["probes"])
                                               for r in setups),
                  "peak_rss_mb": report["rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    print(json.dumps({"machine": machine_facts()}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
