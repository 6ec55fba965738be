"""Simulation studies: hot-spot insertion, tilted samplers, experiments.

Two experiment harnesses mirror the package's analysis pipeline end to end.
The rate experiment measures how clustered palindrome inserts ("hot spots")
bias the window-free rate estimators; the power experiment measures how often
scan thresholds derived from each estimator flag the inserted segments. Hot
spots are drawn from a bank that is simply the PalindromeTable of a
reference sequence, and the power experiment scores each replicate's table
under the same ScoreModel that sets its thresholds. The tilted score sampler
draws from the per-length law of module mgf, built from the MGF kernel's own
factors, so it samples the law score_mgf describes under either ScoreModel
convention.
Everything is reproducible: replicate i draws from a generator seeded by
mixing the master seed with (0, i) through numpy's SeedSequence, so results
do not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, CrowdedSegmentError, EmptyBankError
from .markov import (
    BOHV1_GENOME_LENGTH,
    MarkovModel,
    estimate_model,
    generate_sequence,
    markov_rate,
)
from .mgf import ScoreModel, _bws_split, _power_jet, length_terms, score_mgf
from .palindrome import (
    PalindromeTable,
    average_rate,
    find_palindromes,
    score_events,
)
from .scan import threshold_for_alpha, window_scores
from .seqio import DnaSeq

PLACEMENT_RETRIES = 1000
# Length of each hot-spot segment, as in the paper's 3 x 1000 bp design.
HOTSPOT_LENGTH = 1000
_TAIL_MASS = 1e-12


@dataclass(frozen=True)
class HotspotSpec:
    """One elevated-rate segment to insert into a background sequence."""

    start: int
    length: int = HOTSPOT_LENGTH
    multiplier: float = 1.0

    def __post_init__(self):
        if self.start < 0 or self.length < 1:
            raise ValueError("hotspot segment must have start >= 0 and length >= 1")
        if self.multiplier < 1.0:
            raise ValueError("hotspot multiplier must be >= 1")

    @property
    def stop(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared settings of the rate and power experiments.

    Attributes:
        model: generator (and scoring) model for background sequences.
        lambda0_target: nominal per-position rate used to size hot-spot
            insert counts (length * multiplier * lambda0_target).
    """

    model: MarkovModel
    seq_length: int = BOHV1_GENOME_LENGTH
    half_length: int = 6
    window: int = 1000
    replicates: int = 500
    multipliers: tuple[float, ...] = (1.0, 1.0, 1.0)
    lambda0_target: float = 0.00098
    master_seed: int = 0

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if any(a < 1.0 for a in self.multipliers):
            raise ValueError("multipliers must be >= 1")
        if self.lambda0_target <= 0:
            raise ValueError("lambda0_target must be positive")


@dataclass(frozen=True)
class RateExperimentResult:
    """Hot-spot bias of the two rate estimators, averaged over replicates."""

    multipliers: tuple[float, ...]
    replicates: int
    average_rates: np.ndarray = field(repr=False)
    markov_rates: np.ndarray = field(repr=False)

    @property
    def average_rate_mean(self) -> float:
        return float(self.average_rates.mean())

    @property
    def markov_rate_mean(self) -> float:
        return float(self.markov_rates.mean())

    @property
    def average_rate_se(self) -> float:
        return float(self.average_rates.std(ddof=1) / np.sqrt(self.replicates))

    @property
    def markov_rate_se(self) -> float:
        return float(self.markov_rates.std(ddof=1) / np.sqrt(self.replicates))


@dataclass(frozen=True)
class PowerRow:
    """Detection summary for thresholds derived from one rate estimator."""

    estimator: str
    rate: float
    threshold: float
    powers: tuple[float, ...]


@dataclass(frozen=True)
class PowerExperimentResult:
    kind: str
    alpha: float
    multipliers: tuple[float, ...]
    replicates: int
    rows: tuple[PowerRow, ...]
    segment_maxima: np.ndarray = field(repr=False)


def default_hotspot_specs(cfg: ExperimentConfig) -> list[HotspotSpec]:
    """Hot-spot segments of HOTSPOT_LENGTH bases, one per multiplier, centred
    at the points i / (k + 1) of the sequence (the quarter points for k = 3
    multipliers)."""
    k = len(cfg.multipliers)
    return [
        HotspotSpec(start=int(round((i + 1) / (k + 1) * cfg.seq_length
                                    - HOTSPOT_LENGTH / 2)), multiplier=a)
        for i, a in enumerate(cfg.multipliers)
    ]


def _validate_specs(specs, seq_length: int) -> None:
    ordered = sorted(specs, key=lambda s: s.start)
    for spec in ordered:
        if spec.stop > seq_length:
            raise ValueError(f"hotspot {spec} extends past the sequence end")
    for a, b in zip(ordered, ordered[1:]):
        if a.stop > b.start:
            raise ValueError(f"hotspots {a} and {b} overlap")


def min_seq_length(cfg: ExperimentConfig) -> int:
    """Shortest seq_length from which on the hot-spot layout of cfg
    (default_hotspot_specs) places every segment inside the sequence, with
    no two overlapping.

    From (HOTSPOT_LENGTH + 1) * (segments + 1) bases on, neighbouring
    segments start at least HOTSPOT_LENGTH apart and the outer ones keep
    clear of the ends whatever the rounding of the starts, so the search
    steps down from there.
    """
    def fits(n: int) -> bool:
        try:
            _validate_specs(default_hotspot_specs(replace(cfg, seq_length=n)), n)
        except ValueError:
            return False
        return True

    n = (HOTSPOT_LENGTH + 1) * (len(cfg.multipliers) + 1)
    while n > 1 and fits(n - 1):
        n -= 1
    return n


def insert_hotspots(background: DnaSeq, specs, bank: PalindromeTable,
                    lambda0: float, rng: np.random.Generator):
    """Overwrite hot-spot segments with palindromes resampled from a bank.

    The bank is the table of palindromes found in a reference sequence, so
    patterns are drawn with the reference's own frequencies. Each segment
    receives a Poisson(length * multiplier * lambda0) number of patterns,
    drawn uniformly with replacement from the bank's events; each pattern
    is placed at a uniform centre inside the segment, redrawing (up to
    PLACEMENT_RETRIES times) when it would overlap a previous placement or
    cross the segment boundary. Background palindromes remain, so a
    segment's total event rate is the insert intensity plus the background
    rate.

    Returns:
        (sequence, centers): modified sequence and the sorted ground-truth
        centre positions of all inserted patterns.

    Raises:
        EmptyBankError: the bank holds no palindrome.
        CrowdedSegmentError: a pattern could not be placed within the retry
            budget.
    """
    if not len(bank):
        raise EmptyBankError(f"bank is empty: no palindromes of half-length >= "
                             f"{bank.min_half_length} in its sequence")
    _validate_specs(specs, background.length)
    bases = background.bases.copy()
    centers: list[int] = []
    for spec in specs:
        count = int(rng.poisson(spec.length * spec.multiplier * lambda0))
        placed: list[tuple[int, int]] = []
        for _ in range(count):
            for _attempt in range(PLACEMENT_RETRIES):
                i = int(rng.integers(len(bank)))
                drawn, h = int(bank.centers[i]), int(bank.half_lengths[i])
                c_lo = spec.start + h - 1
                c_hi = spec.stop - 1 - h
                if c_hi < c_lo:
                    continue  # pattern wider than the segment; redraw
                c = int(rng.integers(c_lo, c_hi + 1))
                lo, hi = c - h + 1, c + h
                if any(lo <= p_hi and p_lo <= hi for p_lo, p_hi in placed):
                    continue
                bases[lo : hi + 1] = bank.seq.bases[drawn - h + 1 : drawn + h + 1]
                placed.append((lo, hi))
                centers.append(c)
                break
            else:
                raise CrowdedSegmentError(
                    f"could not place pattern {len(placed) + 1}/{count} in "
                    f"segment at {spec.start} after {PLACEMENT_RETRIES} retries"
                )
    out = DnaSeq(bases=bases, source_id=background.source_id,
                 dropped_count=background.dropped_count)
    return out, sorted(centers)


class TiltedScoreSampler:
    """Draws palindrome scores from the exponentially tilted distribution.

    Tilting by theta reweights the null score density by exp(theta * x)
    (normalised). The half-length law is mgf.length_terms at theta from k =
    half_length on, cut where the terms reach 1 - _TAIL_MASS of their
    closed-form total score_mgf(sm, theta) * sm.rate. For the length-ratio
    score that is the whole law; for the log-rarity score the letters of the
    pattern are then sampled with backward accumulation vectors of the
    kernel's (1 - theta) powers of the start weights, T and the closure
    vector, so each conditional step is an exact categorical draw. Every
    factor is the MGF kernel's, so the draws follow sm.compat_paper.

    Construction precomputes all lookup tables; ``draw`` is vectorised.
    """

    def __init__(self, sm: ScoreModel, theta: float):
        self.kind = sm.kind
        self.theta = float(theta)
        if self.kind == "pcs":
            return
        self.half_length = h = sm.half_length
        target = (1.0 - _TAIL_MASS) * score_mgf(sm, self.theta) * sm.rate
        cum, k_max = [0.0], h
        while not cum[-1] >= target:  # "not >=", so a NaN sum never passes
            if k_max > 100_000:
                raise ConvergenceError("tilted length distribution failed to truncate")
            k_max *= 2
            cum = np.cumsum(length_terms(sm, self.theta, k_max)[h - 1:])
        n = int(np.searchsorted(cum, target)) + 1
        self._ks = np.arange(h, h + n)
        self._cum = cum[:n] / cum[n - 1]
        if self.kind == "bws":
            self._init_bws(sm)

    def _init_bws(self, sm: ScoreModel) -> None:
        v, q, u = _bws_split(_power_jet(sm._bws_log_base, self.theta)[0])
        k_last = int(self._ks[-1])
        # backward[m] = q^m u; conditional step tables follow from them
        backward = np.empty((k_last, 4))
        backward[0] = u
        for m in range(1, k_last):
            backward[m] = q @ backward[m - 1]
        first = v[None, :] * backward[self._ks - 1]
        self._first_cum = np.cumsum(first / first.sum(axis=1, keepdims=True), axis=1)
        steps = np.zeros((k_last, 4, 4))
        with np.errstate(divide="ignore", invalid="ignore"):
            for m in range(1, k_last):
                table = q * backward[m - 1][None, :] / backward[m][:, None]
                steps[m] = np.where(np.isfinite(table), table, 0.0)
        self._step_cum = np.cumsum(steps, axis=2)
        self._log_start, self._log_step, self._log_close = _bws_split(
            sm._bws_log_base[0])

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Sample ``size`` scores."""
        if self.kind == "pcs":
            return np.ones(size)
        idx = np.searchsorted(self._cum, rng.random(size), side="right")
        ks = self._ks[np.minimum(idx, self._ks.size - 1)]
        if self.kind == "pls":
            return ks / self.half_length
        rows = self._first_cum[np.minimum(idx, self._ks.size - 1)]
        letter = (rng.random(size)[:, None] > rows[:, :3]).sum(axis=1)
        log_prob = self._log_start[letter]
        step = 1
        while True:
            active = np.flatnonzero(ks > step)
            if not active.size:
                break
            remaining = ks[active] - step
            rows = self._step_cum[remaining, letter[active]]
            nxt = (rng.random(active.size)[:, None] > rows[:, :3]).sum(axis=1)
            log_prob[active] += self._log_step[letter[active], nxt]
            letter[active] = nxt
            step += 1
        log_prob += self._log_close[letter]
        return -log_prob


def _replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(0, index))
    )


def _bank_for(cfg: ExperimentConfig) -> PalindromeTable:
    """The bank of patterns: the palindromes of one reference sequence
    generated from the model, with its own stream of the master seed."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(1,))
    )
    reference = generate_sequence(cfg.model, cfg.seq_length, rng)
    return find_palindromes(reference, cfg.half_length)


def _replicates(cfg: ExperimentConfig):
    """Yield (events, average rate, Markov rate) for each replicate in turn;
    the steps are those rate_experiment describes."""
    specs = default_hotspot_specs(cfg)
    bank = _bank_for(cfg)
    for i in range(cfg.replicates):
        rng = _replicate_rng(cfg.master_seed, i)
        background = generate_sequence(cfg.model, cfg.seq_length, rng)
        seq, _ = insert_hotspots(background, specs, bank, cfg.lambda0_target, rng)
        events = find_palindromes(seq, cfg.half_length)
        yield (events, average_rate(events).value,
               markov_rate(estimate_model(seq), cfg.half_length).value)


def rate_experiment(cfg: ExperimentConfig) -> RateExperimentResult:
    """Bias of the average-rate and model-based estimators under hot spots.

    Per replicate: generate a background sequence, insert hot spots, detect
    palindromes, and record the observed average rate alongside the rate
    implied by a model re-fitted to the contaminated sequence.
    """
    avg = np.empty(cfg.replicates)
    mk = np.empty(cfg.replicates)
    for i, (_, avg_rate, mk_rate) in enumerate(_replicates(cfg)):
        avg[i], mk[i] = avg_rate, mk_rate
    return RateExperimentResult(multipliers=tuple(cfg.multipliers),
                                replicates=cfg.replicates,
                                average_rates=avg, markov_rates=mk)


def _segment_window_bounds(spec: HotspotSpec, window: int,
                           total_length: int) -> tuple[int, int]:
    """Range of window starts t whose window (t, t+window] meets the segment."""
    lo = max(0, spec.start - window)
    hi = min(total_length - window, spec.stop - 2)
    return lo, hi


def power_experiment(cfg: ExperimentConfig, kind: str, alpha: float = 0.05,
                     nu_fixed: float | None = None,
                     per_replicate_thresholds: bool = False,
                     compat_paper: bool = False) -> PowerExperimentResult:
    """Detection power of scan thresholds built from each rate estimator.

    Per replicate, the maximal window score overlapping each hot-spot
    segment is recorded; a segment counts as detected when that maximum
    reaches the threshold. Thresholds come from inverting the p-value
    approximation at ``alpha`` under each estimator's scenario-averaged rate
    (or per replicate with ``per_replicate_thresholds``). One ScoreModel of
    the generator model scores the events and solves the tilts;
    ``compat_paper`` selects the paper's literal conventions for it (see
    ScoreModel).
    """
    sm = ScoreModel(kind, cfg.model, cfg.half_length, compat_paper=compat_paper)
    bounds = [_segment_window_bounds(spec, cfg.window, cfg.seq_length)
              for spec in default_hotspot_specs(cfg)]
    seg_max = np.empty((cfg.replicates, len(bounds)))
    avg = np.empty(cfg.replicates)
    mk = np.empty(cfg.replicates)
    for i, (events, avg_rate, mk_rate) in enumerate(_replicates(cfg)):
        avg[i], mk[i] = avg_rate, mk_rate
        series = window_scores(events.centers, score_events(events, sm),
                               cfg.window, cfg.seq_length)
        for j, (lo, hi) in enumerate(bounds):
            seg_max[i, j] = series.peak(lo, hi)[1]

    def threshold(rate: float) -> float:
        return threshold_for_alpha(
            alpha, cfg.window, cfg.seq_length, rate, sm, nu_fixed=nu_fixed)

    estimates = {"average": avg, "markov": mk}
    rows = []
    for name, rates in estimates.items():
        mean_rate = float(rates.mean())
        if per_replicate_thresholds:
            b = np.array([threshold(float(r)) for r in rates])
        else:
            b = threshold(mean_rate)
        detected = seg_max >= (b[:, None] if isinstance(b, np.ndarray) else b)
        powers = tuple(float(x) for x in detected.mean(axis=0))
        row_b = float(b.mean()) if isinstance(b, np.ndarray) else float(b)
        rows.append(PowerRow(estimator=name, rate=mean_rate, threshold=row_b,
                             powers=powers))
    return PowerExperimentResult(kind=kind, alpha=alpha,
                                 multipliers=tuple(cfg.multipliers),
                                 replicates=cfg.replicates, rows=tuple(rows),
                                 segment_maxima=seg_max)


def rate_results_to_tsv(results) -> str:
    """Render rate-experiment rows (one per multiplier scenario) as TSV."""
    lines = ["a1\ta2\ta3\tlambda_avg\tlambda_markov"]
    for r in results:
        mult = "\t".join(f"{a:g}" for a in r.multipliers)
        lines.append(
            f"{mult}\t{r.average_rate_mean:.10g}\t{r.markov_rate_mean:.10g}"
        )
    return "\n".join(lines) + "\n"


def power_result_to_tsv(result: PowerExperimentResult) -> str:
    """Render power-experiment rows as TSV, one line per estimator."""
    n_seg = len(result.rows[0].powers) if result.rows else 0
    powers_hdr = "\t".join(f"power{j + 1}" for j in range(n_seg))
    lines = [f"kind\talpha\tmultipliers\testimator\trate\tthreshold\t{powers_hdr}"]
    mult = ",".join(f"{a:g}" for a in result.multipliers)
    for row in result.rows:
        powers = "\t".join(f"{p:.4f}" for p in row.powers)
        lines.append(
            f"{result.kind}\t{result.alpha:g}\t{mult}\t{row.estimator}"
            f"\t{row.rate:.10g}\t{row.threshold:.10g}\t{powers}"
        )
    return "\n".join(lines) + "\n"
