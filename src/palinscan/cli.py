"""Command-line interface tying the pipeline together.

Subcommands:
    estimate  per-input base composition, transition matrix, and rates
    scan      windowed score scan with tilted p-value on one sequence
    mgf       grid of score MGFs and cumulant derivatives
    simulate  hot-spot robustness of the rate estimators
    power     detection power of estimator-derived scan thresholds

Output is TSV on stdout by default; ``--json`` switches to JSON. The
``--compat-paper`` flag switches three documented convention variants at
once (literal mean-increment factor, column-form start weights for the
log-rarity score, and the window-free centering condition) for side-by-side
comparison with the defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import PalinscanError
from .markov import (
    MarkovModel,
    bohv1_model,
    estimate_model,
    iid_rate,
    markov_rate,
    model_to_json,
)
from .mgf import (
    ScoreModel,
    log_mgf,
    log_mgf_double_prime,
    log_mgf_prime,
    score_mgf,
)
from .palindrome import average_rate, events_to_tsv, find_palindromes, score_events
from .scan import null_window_mean, p_value, window_scores
from .seqio import ALPHABET, FastaRecord, fetch_sequence, parse_fasta_file
from .sim import (
    ExperimentConfig,
    power_experiment,
    power_result_to_tsv,
    rate_experiment,
    rate_results_to_tsv,
)

SCAN_REPORT_KEYS = ("w", "W", "lambda0", "kind", "b", "theta1", "lambda1",
                    "nu", "nu_se", "p", "argmax", "max")


@dataclass
class RunConfig:
    """Validated settings of one CLI invocation."""

    command: str
    inputs: list[str]
    accession: str | None
    half_length: int
    window: int
    alpha: float
    seed: int
    replicates: int
    multipliers: list[tuple[float, ...]]
    score: str
    json_output: bool
    nu_fixed: float | None
    compat_paper: bool
    seq_length: int
    lambda0: float | None
    lambda0_target: float
    rate_estimator: str
    threshold: float | None
    dump_series: str | None
    dump_events: str | None
    points: int
    per_replicate_thresholds: bool

    def __post_init__(self):
        if self.half_length < 1:
            raise ValueError("--L must be >= 1")
        if self.window < 1:
            raise ValueError("--w must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("--alpha must lie in (0, 1)")
        if self.replicates < 1:
            raise ValueError("--replicates must be >= 1")
        if self.nu_fixed is not None and not 0.0 < self.nu_fixed <= 1.0:
            raise ValueError("--nu-fixed must lie in (0, 1]")
        if self.points < 2:
            raise ValueError("--points must be >= 2")
        for scenario in self.multipliers:
            if any(a < 1.0 for a in scenario):
                raise ValueError("--multipliers entries must be >= 1")


def _parse_multipliers(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad multiplier list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty multiplier list")
    return values


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", action="append", default=[], metavar="FASTA",
                        help="FASTA file; may be given more than once")
    common.add_argument("--accession", default=None,
                        help="sequence accession to fetch (cached under "
                             "PALINSCAN_CACHE)")
    common.add_argument("--L", dest="half_length", type=int, default=6,
                        help="minimum palindrome half-length (default 6)")
    common.add_argument("--w", dest="window", type=int, default=1000,
                        help="scan window width in bp (default 1000)")
    common.add_argument("--alpha", type=float, default=0.05,
                        help="significance level (default 0.05)")
    common.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0)")
    common.add_argument("--replicates", type=int, default=500,
                        help="simulation replicates (default 500)")
    common.add_argument("--multipliers", action="append", default=None,
                        type=_parse_multipliers, metavar="a1,a2,a3",
                        help="hot-spot rate multipliers; repeat for several "
                             "scenarios (default 1,1,1)")
    common.add_argument("--score", choices=("pcs", "pls", "bws"), default="pls",
                        help="score kind (default pls)")
    common.add_argument("--json", dest="json_output", action="store_true",
                        help="emit JSON instead of TSV")
    common.add_argument("--nu-fixed", dest="nu_fixed", type=float, default=None,
                        help="use this overshoot correction (e.g. 1.0) instead "
                             "of the one computed from the score MGF")
    common.add_argument("--compat-paper", dest="compat_paper",
                        action="store_true",
                        help="switch all literal-convention variants on")
    common.add_argument("--length", dest="seq_length", type=int, default=135301,
                        help="simulated sequence length (default 135301)")
    common.add_argument("--lambda0", type=float, default=None,
                        help="override the null rate per bp for scan")
    common.add_argument("--lambda0-target", dest="lambda0_target", type=float,
                        default=0.00098,
                        help="nominal rate for hot-spot insertion "
                             "(default 0.00098)")
    common.add_argument("--rate-estimator", dest="rate_estimator",
                        choices=("markov", "average", "iid"), default="markov",
                        help="null-rate estimator for scan (default markov)")
    common.add_argument("--threshold", type=float, default=None,
                        help="scan threshold b (default: observed maximum)")
    common.add_argument("--dump-series", dest="dump_series", default=None,
                        metavar="PATH", help="write the window series as TSV")
    common.add_argument("--dump-events", dest="dump_events", default=None,
                        metavar="PATH", help="write scored events as TSV")
    common.add_argument("--points", type=int, default=25,
                        help="grid size for the mgf command (default 25)")
    common.add_argument("--per-replicate-thresholds",
                        dest="per_replicate_thresholds", action="store_true",
                        help="recompute power thresholds for every replicate")

    parser = argparse.ArgumentParser(
        prog="palinscan",
        description="Palindrome scan statistics under Markov null models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("estimate", "estimate models and palindrome rates per input"),
        ("scan", "windowed score scan with tilted p-value"),
        ("mgf", "tabulate score MGFs and cumulant derivatives"),
        ("simulate", "hot-spot robustness of the rate estimators"),
        ("power", "power of estimator-derived scan thresholds"),
    ):
        sub.add_parser(name, parents=[common], help=doc)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        inputs=list(args.input),
        accession=args.accession,
        half_length=args.half_length,
        window=args.window,
        alpha=args.alpha,
        seed=args.seed,
        replicates=args.replicates,
        multipliers=args.multipliers or [(1.0, 1.0, 1.0)],
        score=args.score,
        json_output=args.json_output,
        nu_fixed=args.nu_fixed,
        compat_paper=args.compat_paper,
        seq_length=args.seq_length,
        lambda0=args.lambda0,
        lambda0_target=args.lambda0_target,
        rate_estimator=args.rate_estimator,
        threshold=args.threshold,
        dump_series=args.dump_series,
        dump_events=args.dump_events,
        points=args.points,
        per_replicate_thresholds=args.per_replicate_thresholds,
    )


def _load_records(config: RunConfig) -> list[FastaRecord]:
    records: list[FastaRecord] = []
    for path in config.inputs:
        records.extend(parse_fasta_file(path))
    if config.accession:
        records.append(fetch_sequence(config.accession))
    return records


def _model_for(config: RunConfig, records) -> MarkovModel:
    if records:
        return estimate_model(records[0].seq)
    return bohv1_model()


def _cmd_estimate(config: RunConfig, out) -> int:
    records = _load_records(config)
    if not records:
        raise PalinscanError("estimate needs --input or --accession")
    results = []
    for rec in records:
        model = estimate_model(rec.seq)
        events = find_palindromes(rec.seq, config.half_length)
        results.append({
            "id": rec.id,
            "length": rec.seq.length,
            "dropped": rec.seq.dropped_count,
            "lambda_avg": average_rate(events, rec.seq.length,
                                       config.half_length).value,
            "lambda_iid": iid_rate(model.pi, config.half_length).value,
            "lambda_markov": markov_rate(model, config.half_length).value,
            "model": json.loads(model_to_json(model)),
        })
    if config.json_output:
        out.write(json.dumps(results, indent=2) + "\n")
        return 0
    pi_cols = "\t".join(f"pi_{c}" for c in ALPHABET)
    trans_cols = "\t".join(
        f"p_{a}{b}" for a in ALPHABET for b in ALPHABET
    )
    out.write("id\tlength\tdropped\tlambda_avg\tlambda_iid\tlambda_markov"
              f"\t{pi_cols}\t{trans_cols}\n")
    for r in results:
        pi = "\t".join(f"{x:.10g}" for x in r["model"]["pi"])
        trans = "\t".join(
            f"{x:.10g}" for row in r["model"]["trans"] for x in row
        )
        out.write(
            f"{r['id']}\t{r['length']}\t{r['dropped']}"
            f"\t{r['lambda_avg']:.10g}\t{r['lambda_iid']:.10g}"
            f"\t{r['lambda_markov']:.10g}\t{pi}\t{trans}\n"
        )
    return 0


def _cmd_scan(config: RunConfig, out) -> int:
    records = _load_records(config)
    if not records:
        raise PalinscanError("scan needs --input or --accession")
    seq = records[0].seq
    total_length = seq.length
    model = estimate_model(seq)
    events = find_palindromes(seq, config.half_length)
    if config.lambda0 is not None:
        lambda0 = config.lambda0
    elif config.rate_estimator == "markov":
        lambda0 = markov_rate(model, config.half_length).value
    elif config.rate_estimator == "average":
        lambda0 = average_rate(events, total_length, config.half_length).value
    else:
        lambda0 = iid_rate(model.pi, config.half_length).value
    sm = ScoreModel(config.score, model, config.half_length,
                    bws_column_start=config.compat_paper)
    scores = score_events(events, config.score, config.half_length, model)
    series = window_scores(zip([e.center for e in events], scores),
                           config.window, total_length)
    threshold = config.threshold if config.threshold is not None else series.max_value

    null_mean = null_window_mean(lambda0, sm, config.window, config.compat_paper)
    if threshold <= null_mean:
        report = {
            "b": threshold, "theta1": 0.0, "lambda1": lambda0,
            "nu": 1.0, "nu_se": 0.0, "p": 1.0,
        }
    else:
        rep = p_value(threshold, config.window, total_length, lambda0, sm,
                      nu_fixed=config.nu_fixed,
                      ey1_literal=config.compat_paper,
                      literal_condition=config.compat_paper)
        report = {
            "b": rep.threshold, "theta1": rep.tilt.theta1,
            "lambda1": rep.tilt.lambda1, "nu": rep.nu, "nu_se": rep.nu_se,
            "p": rep.p,
        }
    full = {
        "w": config.window, "W": total_length, "lambda0": lambda0,
        "kind": config.score, **report,
        "argmax": series.argmax, "max": series.max_value,
    }
    ordered = {k: full[k] for k in SCAN_REPORT_KEYS}
    if config.dump_series:
        with open(config.dump_series, "w") as fh:
            fh.write("t\tvalue\n")
            for t, v in enumerate(series.values):
                fh.write(f"{t}\t{v:.10g}\n")
    if config.dump_events:
        with open(config.dump_events, "w") as fh:
            fh.write(events_to_tsv(events, config.half_length, model))
    if config.json_output:
        out.write(json.dumps(ordered, indent=2) + "\n")
    else:
        out.write("\t".join(SCAN_REPORT_KEYS) + "\n")
        out.write("\t".join(_cell(ordered[k]) for k in SCAN_REPORT_KEYS) + "\n")
    return 0


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _cmd_mgf(config: RunConfig, out) -> int:
    model = _model_for(config, _load_records(config))
    kinds = {
        kind: ScoreModel(kind, model, config.half_length,
                         bws_column_start=config.compat_paper)
        for kind in ("pls", "bws")
    }
    sm = (kinds.get(config.score)
          or ScoreModel(config.score, model, config.half_length))
    grid = np.linspace(0.0, 0.95 * min(sm.domain.t_max, 50.0), config.points)
    rows = []
    for t in grid:
        row = {"t": float(t)}
        for kind, skm in kinds.items():
            row[f"mgf_{kind}"] = (
                score_mgf(skm, float(t))
                if t < 0.99 * skm.domain.t_max else float("nan")
            )
        row["phi"] = log_mgf(sm, float(t))
        row["phi_prime"] = log_mgf_prime(sm, float(t))
        row["phi_double_prime"] = log_mgf_double_prime(sm, float(t))
        rows.append(row)
    if config.json_output:
        out.write(json.dumps(rows, indent=2) + "\n")
        return 0
    cols = ["t", "mgf_pls", "mgf_bws", "phi", "phi_prime", "phi_double_prime"]
    out.write("\t".join(cols) + "\n")
    for row in rows:
        out.write("\t".join(f"{row[c]:.10g}" for c in cols) + "\n")
    return 0


def _experiment_config(config: RunConfig, model: MarkovModel,
                       multipliers: tuple[float, ...]) -> ExperimentConfig:
    return ExperimentConfig(
        model=model,
        seq_length=config.seq_length,
        half_length=config.half_length,
        window=config.window,
        replicates=config.replicates,
        multipliers=multipliers,
        lambda0_target=config.lambda0_target,
        master_seed=config.seed,
    )


def _cmd_simulate(config: RunConfig, out) -> int:
    model = _model_for(config, _load_records(config))
    results = [
        rate_experiment(_experiment_config(config, model, scenario))
        for scenario in config.multipliers
    ]
    if config.json_output:
        payload = [
            {
                "multipliers": list(r.multipliers),
                "replicates": r.replicates,
                "lambda_avg": r.average_rate_mean,
                "lambda_avg_se": r.average_rate_se,
                "lambda_markov": r.markov_rate_mean,
                "lambda_markov_se": r.markov_rate_se,
            }
            for r in results
        ]
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        out.write(rate_results_to_tsv(results))
    return 0


def _cmd_power(config: RunConfig, out) -> int:
    model = _model_for(config, _load_records(config))
    results = [
        power_experiment(
            _experiment_config(config, model, scenario),
            config.score,
            alpha=config.alpha,
            nu_fixed=config.nu_fixed,
            per_replicate_thresholds=config.per_replicate_thresholds,
            ey1_literal=config.compat_paper,
            literal_condition=config.compat_paper,
            bws_column_start=config.compat_paper,
        )
        for scenario in config.multipliers
    ]
    if config.json_output:
        payload = [
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
        ]
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0
    blocks = [power_result_to_tsv(r) for r in results]
    header = blocks[0].splitlines()[0]
    out.write(header + "\n")
    for block in blocks:
        for line in block.splitlines()[1:]:
            out.write(line + "\n")
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "scan": _cmd_scan,
    "mgf": _cmd_mgf,
    "simulate": _cmd_simulate,
    "power": _cmd_power,
}


def run(config: RunConfig, out=None) -> int:
    """Execute one validated configuration; returns the exit status."""
    out = out if out is not None else sys.stdout
    try:
        return _COMMANDS[config.command](config, out)
    except PalinscanError as exc:
        print(f"palinscan {config.command}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"palinscan {config.command}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
