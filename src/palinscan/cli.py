"""Command-line interface tying the pipeline together.

Subcommands:
    estimate  per-input base composition, transition matrix, and rates
    scan      windowed score scan with tilted p-value on one sequence
    mgf       grid of score MGFs and cumulant derivatives
    simulate  hot-spot robustness of the rate estimators
    power     detection power of estimator-derived scan thresholds

Each subcommand takes only the flags it reads, so a misplaced flag is an
error rather than silently ignored; flag values are range-checked while
parsing. Output is TSV on stdout by default; ``--json`` switches to JSON.
This module is the package's one output layer: the library returns data,
and every table and document is written here by _write_tsv and
_write_json. The simulate and power tables have one multiplier or power
column per hot-spot segment of the widest scenario; a scenario with fewer
segments leaves the rest of its cells empty.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import PalinscanError
from .markov import (
    BOHV1_GENOME_LENGTH,
    MarkovModel,
    bohv1_model,
    estimate_model,
    iid_model,
    markov_rate,
)
from .mgf import SCORE_KINDS, ScoreModel, cumulants
from .palindrome import average_rate, find_palindromes, score_events
from .scan import WindowSeries, check_scan, exceeds_null_mean, p_value, window_scores
from .seqio import ALPHABET, FastaRecord, decode, fetch_sequence, parse_fasta_file
from .sim import (
    HOTSPOT_LENGTH,
    ExperimentConfig,
    min_seq_length,
    power_experiment,
    rate_experiment,
)

SCAN_REPORT_KEYS = ("w", "W", "lambda0", "kind", "b", "theta1", "lambda1",
                    "nu", "nu_se", "p", "argmax", "max")

# scan --dump-series sums, formats and writes the window series this many lines
# at a time: a 10 Mbp genome's series took 3.1-3.5 s against 10.5-12.6 s
# line by line
SERIES_CHUNK = 1 << 16


def _checked(cast, ok, requirement: str):
    """argparse type: cast the text and reject values failing ok."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
        return value
    parse.__name__ = cast.__name__  # argparse names the type on a failed cast
    return parse


def _parse_multipliers(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad multiplier list {text!r}") from exc
    if not all(1.0 <= a < np.inf for a in values):  # NaN fails too
        raise argparse.ArgumentTypeError(
            f"multipliers must be finite and >= 1, got {text!r}")
    return values


_at_least_1 = _checked(int, lambda v: v >= 1, ">= 1")
_positive_rate = _checked(float, lambda v: 0.0 < v < np.inf, "finite and positive")

_FLAGS = {
    "--input": dict(action="append", default=[], metavar="FASTA",
                    help="FASTA file; may be given more than once"),
    "--accession": dict(default=None, help="sequence accession to fetch (cached "
                                           "under PALINSCAN_CACHE)"),
    "--L": dict(dest="half_length", type=_at_least_1, default=6,
                help="minimum palindrome half-length (default 6)"),
    "--w": dict(dest="window", type=_at_least_1, default=1000,
                help="scan window width in bp (default 1000)"),
    "--alpha": dict(type=_checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
                    default=0.05, help="significance level (default 0.05)"),
    "--seed": dict(type=_checked(int, lambda v: v >= 0, ">= 0"),
                   default=ExperimentConfig.master_seed,
                   help="master seed (default %(default)s)"),
    "--replicates": dict(type=_at_least_1, default=ExperimentConfig.replicates,
                         help="simulation replicates (default %(default)s)"),
    "--multipliers": dict(action="append", default=None, type=_parse_multipliers,
                          metavar="a1,a2,a3",
                          help="hot-spot rate multipliers, each finite and >= 1; "
                               "repeat for several scenarios (default 1,1,1)"),
    "--score": dict(choices=("pcs", "pls", "bws"), default="pls",
                    help="score kind (default pls)"),
    "--json": dict(dest="json_output", action="store_true",
                   help="emit JSON instead of TSV"),
    "--nu-fixed": dict(dest="nu_fixed", default=None,
                       type=_checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
                       help="use this overshoot correction (e.g. 1.0) instead "
                            "of the one computed from the score MGF"),
    "--length": dict(dest="seq_length", type=int, default=BOHV1_GENOME_LENGTH,
                     help="simulated sequence length (default %(default)s)"),
    "--lambda0": dict(type=_positive_rate, default=None,
                      help="override the null rate per bp"),
    "--lambda0-target": dict(dest="lambda0_target", type=_positive_rate,
                             default=ExperimentConfig.lambda0_target,
                             help="nominal rate for hot-spot insertion "
                                  "(default %(default)s)"),
    "--rate-estimator": dict(dest="rate_estimator", default="markov",
                             choices=("markov", "average", "iid"),
                             help="null-rate estimator (default markov)"),
    "--threshold": dict(type=_checked(float, np.isfinite, "finite"), default=None,
                        help="scan threshold b (default: observed maximum)"),
    "--dump-series": dict(dest="dump_series", default=None, metavar="PATH",
                          help="write the window series as TSV"),
    "--dump-events": dict(dest="dump_events", default=None, metavar="PATH",
                          help="write scored events as TSV"),
    "--points": dict(type=_checked(int, lambda v: v >= 2, ">= 2"), default=25,
                     help="grid size (default 25)"),
    "--per-replicate-thresholds": dict(dest="per_replicate_thresholds",
                                       action="store_true",
                                       help="recompute thresholds for every "
                                            "replicate"),
}

# Every subcommand also takes --input, --accession and --L.
_SUBCOMMANDS = {
    "estimate": ("estimate models and palindrome rates per input", ("--json",)),
    "scan": ("windowed score scan with tilted p-value",
             ("--w", "--score", "--json", "--nu-fixed", "--lambda0",
              "--rate-estimator", "--threshold", "--dump-series", "--dump-events")),
    "mgf": ("tabulate score MGFs and cumulant derivatives",
            ("--score", "--json", "--points")),
    "simulate": ("hot-spot robustness of the rate estimators",
                 ("--seed", "--replicates", "--multipliers", "--length",
                  "--lambda0-target", "--json")),
    "power": ("power of estimator-derived scan thresholds",
              ("--w", "--alpha", "--seed", "--replicates", "--multipliers",
               "--score", "--json", "--nu-fixed", "--length", "--lambda0-target",
               "--per-replicate-thresholds")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palinscan",
        description="Palindrome scan statistics under Markov null models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, flags) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=doc)
        for flag in ("--input", "--accession", "--L", *flags):
            cmd.add_argument(flag, **_FLAGS[flag])
        if name == "scan":
            cmd.add_argument("--seed", type=int, default=0,
                             help="accepted and ignored: scan draws no random "
                                  "numbers")
    return parser


def _load_records(args: argparse.Namespace) -> list[FastaRecord]:
    records: list[FastaRecord] = []
    for path in args.input:
        records.extend(parse_fasta_file(path))
    if args.accession:
        records.append(fetch_sequence(args.accession))
    return records


def _single_record(args: argparse.Namespace) -> FastaRecord | None:
    """The one input record, or None when no input was given."""
    records = _load_records(args)
    if len(records) > 1:
        raise PalinscanError(f"{args.command} takes one sequence, but the input "
                             f"holds {len(records)} records")
    return records[0] if records else None


def _model_for(args: argparse.Namespace) -> MarkovModel:
    """The model fitted to the one input record, or BoHV-1 without input."""
    rec = _single_record(args)
    return estimate_model(rec.seq) if rec else bohv1_model()


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_tsv(out, header, rows) -> None:
    """A header line, then one line per row: floats at 10 significant
    digits, every other cell (text the caller formatted) as it is."""
    out.write("\t".join(header) + "\n")
    for row in rows:
        out.write("\t".join(map(_cell, row)) + "\n")


def _write_json(out, payload) -> None:
    out.write(json.dumps(payload, indent=2) + "\n")


def _round12(values) -> list[float]:
    return [float(f"{x:.12g}") for x in values]


def _cmd_estimate(args: argparse.Namespace, out) -> int:
    records = _load_records(args)
    if not records:
        raise PalinscanError("estimate needs --input or --accession")
    results = []
    for rec in records:
        model = estimate_model(rec.seq)
        events = find_palindromes(rec.seq, args.half_length)
        results.append({
            "id": rec.id,
            "length": rec.seq.length,
            "dropped": rec.seq.dropped_count,
            "lambda_avg": average_rate(events).value,
            "lambda_iid": markov_rate(iid_model(model.pi), args.half_length).value,
            "lambda_markov": markov_rate(model, args.half_length).value,
            "model": {"pi": _round12(model.pi),
                      "trans": [_round12(row) for row in model.trans]},
        })
    if args.json_output:
        _write_json(out, results)
        return 0
    scalars = ("id", "length", "dropped", "lambda_avg", "lambda_iid", "lambda_markov")
    _write_tsv(out, (*scalars, *(f"pi_{c}" for c in ALPHABET),
                     *(f"p_{a}{b}" for a in ALPHABET for b in ALPHABET)),
               ([*(r[k] for k in scalars), *r["model"]["pi"],
                 *(x for row in r["model"]["trans"] for x in row)] for r in results))
    return 0


def _cmd_scan(args: argparse.Namespace, out) -> int:
    rec = _single_record(args)
    if rec is None:
        raise PalinscanError("scan needs --input or --accession")
    seq = rec.seq
    total_length = seq.length
    check_scan(args.window, total_length, args.nu_fixed)
    model = estimate_model(seq)
    events = find_palindromes(seq, args.half_length)
    if args.lambda0 is not None:
        lambda0 = args.lambda0
    elif args.rate_estimator == "markov":
        lambda0 = markov_rate(model, args.half_length).value
    elif args.rate_estimator == "average":
        lambda0 = average_rate(events).value
    else:
        lambda0 = markov_rate(iid_model(model.pi), args.half_length).value
    sm = ScoreModel(args.score, model, args.half_length)
    series = window_scores(events.centers, score_events(events, sm), args.window,
                           total_length)
    argmax, peak = series.peak()
    threshold = args.threshold if args.threshold is not None else peak
    if exceeds_null_mean(lambda0, sm, threshold, args.window):
        rep = p_value(threshold, args.window, total_length, lambda0, sm,
                      nu_fixed=args.nu_fixed)
        tilted = (rep.tilt.threshold, rep.tilt.theta1, rep.tilt.lambda1, rep.nu,
                  rep.nu_se, rep.p)
    else:
        tilted = (threshold, 0.0, lambda0, 1.0, 0.0, 1.0)
    row = dict(zip(SCAN_REPORT_KEYS, (args.window, total_length, lambda0, args.score,
                                      *tilted, argmax, peak), strict=True))
    if args.dump_series:
        _dump_series(args.dump_series, series)
    if args.dump_events:
        _dump_events(args.dump_events, events, model)
    if args.json_output:
        _write_json(out, row)
    else:
        _write_tsv(out, SCAN_REPORT_KEYS, [row.values()])
    return 0


def _dump_series(path: str, series: WindowSeries) -> None:
    """One line per window start: the start and its window sum to 10
    significant digits. The starts are summed SERIES_CHUNK at a time, so no
    per-start array is held. The sums are piecewise constant, so each run
    of equal sums (told apart by their bits, so -0.0 keeps its sign) is
    formatted once, and each chunk is written with one join."""
    count = series.total_length - series.window + 1
    with open(path, "w") as fh:
        fh.write("t\tvalue\n")
        for start in range(0, count, SERIES_CHUNK):
            stop = min(start + SERIES_CHUNK, count)
            bits = series.sums(np.arange(start, stop)).view(np.uint64)
            new_run = np.concatenate(([True], bits[1:] != bits[:-1]))
            texts = [f"{v:.10g}\n" for v in bits[new_run].view(np.float64).tolist()]
            runs = (np.cumsum(new_run) - 1).tolist()
            fh.write("".join([f"{t}\t{texts[i]}" for t, i in zip(range(start, stop), runs)]))


def _dump_events(path: str, events, model: MarkovModel) -> None:
    """Each event's centre, half-length and pattern, and its score of each
    kind under model at the table's threshold."""
    scores = [score_events(events, ScoreModel(kind, model, events.min_half_length))
              for kind in SCORE_KINDS]
    centers, half_lengths = events.centers.tolist(), events.half_lengths.tolist()
    bases = events.seq.bases
    patterns = [decode(bases[c - h + 1 : c + h + 1])
                for c, h in zip(centers, half_lengths)]
    with open(path, "w") as fh:
        _write_tsv(fh, ("center", "half_length", "pattern", *SCORE_KINDS),
                   zip(centers, half_lengths, patterns, *(x.tolist() for x in scores)))


def _cmd_mgf(args: argparse.Namespace, out) -> int:
    model = _model_for(args)
    sms = {kind: ScoreModel(kind, model, args.half_length) for kind in SCORE_KINDS}
    sm = sms[args.score]
    grid = np.linspace(0.0, 0.95 * min(sm.t_max, 50.0), args.points)
    rows = []
    for t in grid.tolist():
        # one cumulants call per kind: the MGF columns are e^phi, and the
        # selected kind's call gives the phi columns too
        shown = [kind for kind in ("pls", "bws") if t < 0.99 * sms[kind].t_max]
        jets = {kind: cumulants(sms[kind], t) for kind in {args.score, *shown}}
        row = {"t": t}
        for kind in ("pls", "bws"):
            row[f"mgf_{kind}"] = math.exp(jets[kind][0]) if kind in shown else float("nan")
        row["phi"], row["phi_prime"], row["phi_double_prime"] = jets[args.score]
        rows.append(row)
    if args.json_output:
        _write_json(out, rows)
    else:
        _write_tsv(out, rows[0], (row.values() for row in rows))
    return 0


def _experiments(args: argparse.Namespace, **fields) -> list[ExperimentConfig]:
    """One experiment per --multipliers scenario, on the --input model."""
    model = _model_for(args)
    configs = [
        ExperimentConfig(model=model, seq_length=args.seq_length,
                         half_length=args.half_length, replicates=args.replicates,
                         multipliers=scenario, lambda0_target=args.lambda0_target,
                         master_seed=args.seed, **fields)
        for scenario in args.multipliers or [(1.0, 1.0, 1.0)]
    ]
    for cfg in configs:
        shortest = min_seq_length(cfg)
        if cfg.seq_length < shortest:
            raise PalinscanError(
                f"--length {cfg.seq_length} is too short for "
                f"{len(cfg.multipliers)} hot-spot segments of "
                f"{HOTSPOT_LENGTH} bp; use --length {shortest} or more")
    return configs


def _padded(cells: list[str], width: int) -> list[str]:
    """Per-segment cells of one scenario, left empty past its segments."""
    return cells + [""] * (width - len(cells))


def _cmd_simulate(args: argparse.Namespace, out) -> int:
    results = [rate_experiment(cfg) for cfg in _experiments(args)]
    if args.json_output:
        _write_json(out, [
            {
                "multipliers": list(r.multipliers),
                "replicates": r.replicates,
                "lambda_avg": r.average_rate_mean,
                "lambda_avg_se": r.average_rate_se,
                "lambda_markov": r.markov_rate_mean,
                "lambda_markov_se": r.markov_rate_se,
            }
            for r in results
        ])
        return 0
    k = max(len(r.multipliers) for r in results)
    _write_tsv(out, (*(f"a{j + 1}" for j in range(k)), "lambda_avg", "lambda_markov"),
               ([*_padded([f"{a:g}" for a in r.multipliers], k),
                 r.average_rate_mean, r.markov_rate_mean] for r in results))
    return 0


def _cmd_power(args: argparse.Namespace, out) -> int:
    results = [
        power_experiment(cfg, args.score, alpha=args.alpha, nu_fixed=args.nu_fixed,
                         per_replicate_thresholds=args.per_replicate_thresholds)
        for cfg in _experiments(args, window=args.window)
    ]
    if args.json_output:
        _write_json(out, [
            {
                "kind": r.kind,
                "alpha": r.alpha,
                "multipliers": list(r.multipliers),
                "replicates": r.replicates,
                "rows": [
                    {
                        "estimator": row.estimator,
                        "rate": row.rate,
                        "threshold": row.threshold,
                        "powers": list(row.powers),
                    }
                    for row in r.rows
                ],
            }
            for r in results
        ])
        return 0
    k = max(len(r.multipliers) for r in results)
    _write_tsv(out, ("kind", "alpha", "multipliers", "estimator", "rate", "threshold",
                     *(f"power{j + 1}" for j in range(k))),
               ([r.kind, f"{r.alpha:g}", ",".join(f"{a:g}" for a in r.multipliers),
                 row.estimator, row.rate, row.threshold,
                 *_padded([f"{p:.4f}" for p in row.powers], k)]
                for r in results for row in r.rows))
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "scan": _cmd_scan,
    "mgf": _cmd_mgf,
    "simulate": _cmd_simulate,
    "power": _cmd_power,
}


def run(args: argparse.Namespace, out=None) -> int:
    """Execute one parsed command line; returns the exit status."""
    out = out if out is not None else sys.stdout
    try:
        return _COMMANDS[args.command](args, out)
    except (PalinscanError, ValueError, OSError) as exc:
        print(f"palinscan {args.command}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
