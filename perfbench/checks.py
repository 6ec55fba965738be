"""Checks on the program's outputs; each returns a list of problems found.

A record is one timed op: {"label", "out", "err", ...} as worker.py
reports it. An op fails when it raised (err set) or any check below finds a
problem with its output.
"""

from __future__ import annotations

import json
import math

LAMBDA0_RTOL = 1e-9
# threshold_for_alpha stops its root search at |db| < 1e-6, which leaves
# |p - alpha| / alpha below 1e-3 on these settings; 1% states the contract.
ALPHA_RTOL = 0.01
# Largest accepted Monte Carlo standard error of nu, per workload and score:
# about 1.25x the largest value seen over ten seeds with the default 100k
# walks. Halving the walks raises it about 1.41x and fails; an exact nu (0)
# passes.
NU_SE_CEILING = {
    ("genome_scan", "pls"): 9.0e-4,
    ("genome_scan", "bws"): 3.0e-4,
    ("threshold_calibration", "pls"): 5.8e-4,
    ("threshold_calibration", "bws"): 3.3e-4,
}
SCAN_KEYS = ("w", "W", "lambda0", "kind", "argmax", "p", "nu", "nu_se")


def nu_se_problems(workload: str, kind: str, nu_se) -> list[str]:
    ceiling = NU_SE_CEILING[(workload, kind)]
    if not 0.0 <= nu_se <= ceiling:
        return [f"nu_se {nu_se!r} outside [0, {ceiling}]"]
    return []


def scan_report(text: str, kind: str, clusters, lambda0: float, length: int,
                window: int) -> list[str]:
    """A `palinscan scan --json` report on the benchmark genome.

    Args:
        clusters: (start, stop) of each planted palindrome cluster.
        lambda0: Markov rate computed by the benchmark from the genome's own
            base and pair counts.
    """
    try:
        r = json.loads(text)
        missing = [k for k in SCAN_KEYS if k not in r]
    except (TypeError, ValueError):
        return ["scan output is not a JSON object"]
    if missing:
        return [f"scan output lacks {missing}"]
    problems = []
    if r["kind"] != kind or r["w"] != window or r["W"] != length:
        problems.append(f"report is for kind={r['kind']} w={r['w']} W={r['W']}")
    t = r["argmax"]  # the window covers positions t+1 .. t+window
    if not any(t + 1 < stop and t + window >= start for start, stop in clusters):
        problems.append(f"argmax window at {t} overlaps no planted cluster")
    if not abs(r["lambda0"] - lambda0) <= LAMBDA0_RTOL * lambda0:
        problems.append(f"lambda0 {r['lambda0']!r} != fitted Markov rate {lambda0!r}")
    if not 0.0 < r["p"] <= 1.0:
        problems.append(f"p {r['p']!r} outside (0, 1]")
    if not 0.0 < r["nu"] <= 1.0:
        problems.append(f"nu {r['nu']!r} outside (0, 1]")
    return problems + nu_se_problems("genome_scan", kind, r["nu_se"])


def threshold_checks(kind: str, alpha: float, verified: list[dict]) -> list[str]:
    """p_value re-evaluated at returned thresholds, for one (kind, alpha)."""
    problems = []
    for v in verified:
        if not abs(v["p"] - alpha) <= ALPHA_RTOL * alpha:
            problems.append(f"p {v['p']!r} at threshold {v['threshold']!r} is not "
                            f"within {ALPHA_RTOL:.0%} of alpha {alpha}")
        problems += nu_se_problems("threshold_calibration", kind, v["nu_se"])
    return problems


def threshold_order(thresholds: dict) -> dict[str, list[str]]:
    """Within each kind, thresholds must rise as alpha falls.

    Args:
        thresholds: {(kind, alpha): threshold}.
    Returns:
        {kind: problems} for the kinds that break the order.
    """
    problems = {}
    for kind in {k for k, _ in thresholds}:
        by_alpha = sorted((a, b) for (k, a), b in thresholds.items() if k == kind)
        bs = [b for _, b in reversed(by_alpha)]
        if any(not lo < hi for lo, hi in zip(bs, bs[1:])):
            problems[kind] = [f"{kind} thresholds do not rise as alpha falls: {by_alpha}"]
    return problems


def _tsv(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def power_table(text: str, kind: str) -> list[str]:
    """TSV output of `palinscan power` for one multiplier scenario."""
    try:
        rows = {r["estimator"]: r for r in _tsv(text)}
        avg, mk = rows["average"], rows["markov"]
        powers = [float(v) for r in rows.values() for k, v in r.items()
                  if k.startswith("power")]
        kinds = {r["kind"] for r in rows.values()}
        b_avg, b_mk = float(avg["threshold"]), float(mk["threshold"])
    except (IndexError, KeyError, ValueError):
        return ["power output is not the expected table"]
    problems = []
    if kinds != {kind} or len(powers) != 6:
        problems.append(f"power table has kinds {kinds} and {len(powers)} powers")
    if not all(0.0 <= p <= 1.0 for p in powers):
        problems.append(f"power outside [0, 1]: {powers}")
    if not b_mk < b_avg:
        problems.append(f"Markov threshold {b_mk} is not below average-rate {b_avg}")
    return problems


def simulate_table(text: str) -> list[str]:
    """TSV output of `palinscan simulate` for one multiplier scenario."""
    try:
        (row,) = _tsv(text)
        rates = [float(row["lambda_avg"]), float(row["lambda_markov"])]
    except (IndexError, KeyError, ValueError):
        return ["simulate output is not the expected table"]
    if not all(math.isfinite(r) and r > 0.0 for r in rates):
        return [f"rates {rates} are not positive and finite"]
    return []


def repeats_differ(records) -> set[int]:
    """Indices of records whose output differs from their label's first."""
    first = {}
    differ = set()
    for i, r in enumerate(records):
        if r["out"] is None:
            continue
        if first.setdefault(r["label"], r["out"]) != r["out"]:
            differ.add(i)
    return differ


def problems_by_record(workload: str, records, context: dict) -> list[list[str]]:
    """Every problem of every record, in record order.

    Args:
        context: genome_scan needs "clusters", "lambda0", "length" and
            "window"; threshold_calibration needs "verify" (worker.py's
            p-values at the returned thresholds).
    """
    found = [[r["err"]] if r["err"] else [] for r in records]
    for i in repeats_differ(records):
        found[i].append("output differs from an earlier repeat of the same op")
    order = {}
    if workload == "threshold_calibration":
        order = threshold_order({
            _label_params(r["label"]): float(r["out"])
            for r in records if r["out"] is not None})
    for r, problems in zip(records, found):
        if r["out"] is None:
            continue
        op, *rest = r["label"].split()
        if workload == "genome_scan":
            problems += scan_report(r["out"], rest[0], context["clusters"],
                                    context["lambda0"], context["length"],
                                    context["window"])
        elif workload == "threshold_calibration":
            kind, alpha = _label_params(r["label"])
            verified = [v for v in context["verify"].get(r["label"], [])
                        if repr(v["threshold"]) == r["out"]]
            problems += (threshold_checks(kind, alpha, verified) if verified
                         else ["threshold was not re-evaluated"])
            problems += order.get(kind, [])
        elif op == "power":
            problems += power_table(r["out"], rest[0])
        else:
            problems += simulate_table(r["out"])
    return found


def _label_params(label: str) -> tuple[str, float]:
    _, kind, alpha = label.split()
    return kind, float(alpha)
