"""Runs one workload's ops in a fresh process and prints a JSON report.

run.py starts this once per set-up measurement, so that every import of
palinscan is a cold one and peak RSS belongs to the program alone:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 [--input FASTA] [--setup-only]

The process imports palinscan from the checkout's src/, runs the first op
once as a warm-up (set-up time is import plus that op), then runs the whole
op list in a closed loop until --seconds have passed. With --trace 1 it
runs the loop for half the time untraced and half traced, so the report
carries both the per-layer spans and the tracing overhead. The last stdout
line is the JSON report; palinscan's own stdout is captured per op.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts numpy's import too

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

WINDOW = 1000
HALF_LENGTH = 6
CALIBRATION_LENGTH = 135_301
ALPHAS = (0.05, 0.01, 0.001)
KINDS = ("pls", "bws")
POWER_REPLICATES = 20
POWER_ARGS = ("--length", str(CALIBRATION_LENGTH), "--multipliers", "10,10,10",
              "--replicates", str(POWER_REPLICATES))
PROBES_PER_OP = 3
PROBE_DATA = np.random.default_rng(0).random(100_000)


def probe() -> float:
    """Seconds taken by a fixed task that never calls palinscan.

    An interpreter loop plus sorts of a cache-sized array, about 10 ms; it
    allocates under 1 MB, so it leaves peak RSS alone. run.py divides each
    op's time by how much slower than usual the probe ran right after it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(10):
        np.sort(PROBE_DATA)
    return time.perf_counter() - start


def derived_seed(seed: int, purpose: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(purpose,)).generate_state(1)[0])


def run_cli(argv: list[str]) -> str:
    """palinscan.cli.main in-process; returns its stdout, raises on failure."""
    import palinscan.cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = palinscan.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        raise RuntimeError(f"palinscan {argv[0]} exited with {exc.code}") from None
    if status != 0:
        raise RuntimeError(f"palinscan {argv[0]} returned {status}")
    return buf.getvalue()


def calibration_model(kind: str):
    import palinscan

    model = palinscan.bohv1_model()
    return (palinscan.ScoreModel(kind, model, HALF_LENGTH),
            palinscan.markov_rate(model, HALF_LENGTH).value)


def threshold_op(kind: str, alpha: float, entropy: int) -> str:
    import palinscan

    sm, lambda0 = calibration_model(kind)
    b = palinscan.threshold_for_alpha(alpha, WINDOW, CALIBRATION_LENGTH, lambda0, sm,
                                      nu_entropy=entropy)
    return repr(float(b))


def make_ops(workload: str, seed: int, fasta: str | None):
    """[(label, params, zero-argument callable returning the op's output)]."""
    if workload == "genome_scan":
        scan_seed = str(derived_seed(seed, 1))
        return [(f"scan {kind}", {"kind": kind},
                 lambda kind=kind: run_cli([
                     "scan", "--input", fasta, "--w", str(WINDOW),
                     "--L", str(HALF_LENGTH), "--score", kind, "--json",
                     "--seed", scan_seed]))
                for kind in KINDS]
    if workload == "threshold_calibration":
        rng = np.random.default_rng(derived_seed(seed, 2))
        ops = []
        for kind in KINDS:
            for alpha in ALPHAS:
                entropy = int(rng.integers(2**63))
                ops.append((f"threshold {kind} {alpha}",
                            {"kind": kind, "alpha": alpha, "entropy": entropy},
                            lambda k=kind, a=alpha, e=entropy: threshold_op(k, a, e)))
        return ops
    if workload == "power_study":
        common = [*POWER_ARGS, "--seed", str(derived_seed(seed, 3))]
        power = ["--alpha", "0.0005", "--nu-fixed", "1.0", *common]
        return [
            ("power pls", {"kind": "pls"},
             lambda: run_cli(["power", "--score", "pls", *power])),
            ("power bws", {"kind": "bws"},
             lambda: run_cli(["power", "--score", "bws", *power])),
            ("simulate", {}, lambda: run_cli(["simulate", *common])),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_loop(ops, seconds: float, after=None) -> dict:
    """Run the op list in order, over and over, until `seconds` have passed
    and every op has run at least once.

    `after(label)`, when given, is called after each op; then the probe
    runs PROBES_PER_OP times, outside the op's time, and its times are kept
    with the op's record.
    """
    records = []
    start = time.perf_counter()
    while True:
        for label, _, fn in ops:
            t0 = time.perf_counter()
            out, err = None, None
            try:
                out = fn()
            except Exception as exc:  # a failed op is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            record = {"label": label, "s": time.perf_counter() - t0, "out": out, "err": err}
            if after is not None:
                after(label)
            record["probes"] = [probe() for _ in range(PROBES_PER_OP)]
            records.append(record)
            elapsed = time.perf_counter() - start
            if len(records) >= len(ops) and elapsed >= seconds:
                return {"records": records, "elapsed": elapsed}


def verify_thresholds(ops, records) -> dict:
    """p-value and nu standard error at each returned threshold.

    Evaluated once per op with the op's own frozen nu entropy, outside the
    timed loop.
    """
    import palinscan

    verify = {}
    for label, params, _ in ops:
        outs = {r["out"] for r in records if r["label"] == label and r["out"]}
        for out in outs:
            sm, lambda0 = calibration_model(params["kind"])
            rep = palinscan.p_value(float(out), WINDOW, CALIBRATION_LENGTH, lambda0, sm,
                                    rng=np.random.default_rng(params["entropy"]))
            verify.setdefault(label, []).append(
                {"threshold": float(out), "p": rep.p, "nu": rep.nu, "nu_se": rep.nu_se})
    return verify


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import palinscan
    import palinscan.cli  # noqa: F401  (every traced module is loaded here)

    if not Path(palinscan.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"palinscan imported from {palinscan.__file__}, not {ROOT / 'src'}")
    ops = make_ops(args.workload, args.seed, args.input)
    try:
        ops[0][2]()
    except Exception:  # the same op fails again, and is counted, in the loop
        pass
    report = {"setup_s": time.perf_counter() - _STARTED,
              "probes": [probe() for _ in range(3 * PROBES_PER_OP)]}
    if not args.setup_only:
        if args.trace:
            import tracer

            report["untraced"] = run_loop(ops, args.seconds / 2)
            spans = tracer.Tracer()
            by_label = {}

            def collect(label):
                for name, fields in spans.take().items():
                    acc = by_label.setdefault(label, {}).setdefault(name, dict.fromkeys(fields, 0))
                    for k, v in fields.items():
                        acc[k] += v

            restore, absent = tracer.install(spans)
            try:
                report["traced"] = run_loop(ops, args.seconds / 2, after=collect)
            finally:
                restore()
            report["spans"] = by_label
            report["wrapped"] = sorted(spans.spans)
            report["absent"] = absent
            records = report["untraced"]["records"] + report["traced"]["records"]
        else:
            report["timed"] = run_loop(ops, args.seconds)
            records = report["timed"]["records"]
        if args.workload == "threshold_calibration":
            report["verify"] = verify_thresholds(ops, records)
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
