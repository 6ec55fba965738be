"""Simulation studies: hot-spot insertion, tilted samplers, experiments.

Two experiment harnesses mirror the package's analysis pipeline end to end.
The rate experiment measures how clustered palindrome inserts ("hot spots")
bias the window-free rate estimators; the power experiment measures how often
scan thresholds derived from each estimator flag the inserted segments. Hot
spots are drawn from a bank that is simply the PalindromeTable of a
reference sequence, and the power experiment scores each replicate's table
under the same ScoreModel that sets its thresholds. The tilted score sampler
reads its half-length law from the backward vectors Q^m u of the MGF
kernel's factors at the tilt, the vectors its bws letter draws use too, so
it samples the law score_mgf describes.
Everything is reproducible: replicate i draws from a generator seeded by
mixing the master seed with (0, i) through numpy's SeedSequence, so results
do not depend on execution order. The experiments return result objects
holding the per-replicate arrays and summary rows; the command line
renders them as tables.
"""

from __future__ import annotations

from bisect import bisect_right
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
from .mgf import ScoreModel, _bws_split, _power_jet, score_mgf
from .palindrome import (
    PalindromeTable,
    average_rate,
    find_palindromes,
    score_events,
)
from .scan import check_scan, threshold_for_alpha, window_scores
from .seqio import DnaSeq

PLACEMENT_RETRIES = 1000
# Length of each hot-spot segment, as in the paper's 3 x 1000 bp design.
HOTSPOT_LENGTH = 1000
_TAIL_MASS = 1e-12


@dataclass(frozen=True)
class HotspotSpec:
    """One elevated-rate segment of HOTSPOT_LENGTH bases, from start on, to
    insert into a background sequence."""

    start: int
    multiplier: float = 1.0

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("hotspot segment must have start >= 0")
        if not 1.0 <= self.multiplier < np.inf:  # NaN fails too
            raise ValueError(f"hotspot multiplier must be finite and >= 1, "
                             f"got {self.multiplier}")

    @property
    def stop(self) -> int:
        return self.start + HOTSPOT_LENGTH


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared settings of the rate and power experiments.

    Attributes:
        model: generator (and scoring) model for background sequences.
        lambda0_target: nominal per-position rate used to size hot-spot
            insert counts (HOTSPOT_LENGTH * multiplier * lambda0_target).
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
        if not all(1.0 <= a < np.inf for a in self.multipliers):  # NaN fails too
            raise ValueError(f"multipliers must be finite and >= 1, "
                             f"got {self.multipliers}")
        if not 0.0 < self.lambda0_target < np.inf:
            raise ValueError(f"lambda0_target must be finite and positive, "
                             f"got {self.lambda0_target}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class RateExperimentResult:
    """Hot-spot bias of the two rate estimators, averaged over replicates.

    The *_se properties are standard errors of the means, NaN for a single
    replicate.
    """

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
        return _standard_error(self.average_rates)

    @property
    def markov_rate_se(self) -> float:
        return _standard_error(self.markov_rates)


def _standard_error(rates: np.ndarray) -> float:
    """Standard error of the mean of the rates; NaN for a single replicate,
    which has no spread to estimate it from."""
    if rates.size < 2:
        return float("nan")
    return float(rates.std(ddof=1) / np.sqrt(rates.size))


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
    of HOTSPOT_LENGTH bases receives a Poisson(HOTSPOT_LENGTH * multiplier
    * lambda0) number of patterns, drawn uniformly with replacement from
    the bank's events; each pattern is placed at a uniform centre inside
    the segment, redrawing (up to PLACEMENT_RETRIES times) when it would
    overlap a previous placement or cross the segment boundary. Background
    palindromes remain, so a segment's total event rate is the insert
    intensity plus the background rate.

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
        count = int(rng.poisson(HOTSPOT_LENGTH * spec.multiplier * lambda0))
        # the placements' first and last positions, both sorted: they are
        # disjoint, so the one starting last at or before hi ends last
        starts: list[int] = []
        ends: list[int] = []
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
                k = bisect_right(starts, hi)
                if k and ends[k - 1] >= lo:
                    continue
                bases[lo : hi + 1] = bank.seq.bases[drawn - h + 1 : drawn + h + 1]
                starts.insert(k, lo)
                ends.insert(k, hi)
                centers.append(c)
                break
            else:
                raise CrowdedSegmentError(
                    f"could not place pattern {len(starts) + 1}/{count} in "
                    f"segment at {spec.start} after {PLACEMENT_RETRIES} retries"
                )
    return DnaSeq(bases=bases, dropped_count=background.dropped_count), sorted(centers)


class TiltedScoreSampler:
    """Draws palindrome scores from the exponentially tilted distribution.

    Tilting by theta reweights the null score density by exp(theta * x)
    (normalised). The MGF kernel's factors at theta, v, Q and u, are the
    start weights, e^(theta / h) T and e^(theta / h) c for the length-ratio
    score (whose score k / h gains 1 / h per step), and their entrywise
    (1 - theta) powers for the log-rarity score. With the backward vectors
    Q^m u, the term of half-length k is v Q^(k-1) u; the half-length law is
    those terms from k = half_length on, cut where they reach 1 - _TAIL_MASS
    of their closed-form total score_mgf(sm, theta) * sm.rate. That is the
    whole law of the length-ratio score; the log-rarity score then draws the
    pattern's letters from the same backward vectors, each conditional step
    an exact categorical draw.

    Construction precomputes all lookup tables; ``draw`` is vectorised.
    """

    def __init__(self, sm: ScoreModel, theta: float):
        self.kind = sm.kind
        self.theta = float(theta)
        if self.kind == "pcs":
            return
        self.half_length = h = sm.half_length
        target = (1.0 - _TAIL_MASS) * score_mgf(sm, self.theta) * sm.rate
        if self.kind == "pls":
            grow = np.exp(self.theta / h)
            v, q, u = sm.start_weights, grow * sm.t_matrix, grow * sm.closure_probs
        else:
            v, q, u = _bws_split(_power_jet(sm._bws_log_base, self.theta)[0])
        # backward[m] = q^m u, so the term of half-length k is v backward[k - 1]
        backward, cum, k_max = [u], [0.0], h
        while not cum[-1] >= target:  # "not >=", so a NaN sum never passes
            if k_max > 100_000:
                raise ConvergenceError("tilted length distribution failed to truncate")
            k_max *= 2
            while len(backward) < k_max:
                backward.append(q @ backward[-1])
            cum = np.cumsum(np.array(backward[h - 1:]) @ v)
        n = int(np.searchsorted(cum, target)) + 1
        self._ks = np.arange(h, h + n)
        self._cum = cum[:n] / cum[n - 1]
        if self.kind == "pls":
            return
        k_last = h + n - 1
        backward = np.array(backward[:k_last])
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
                     per_replicate_thresholds: bool = False) -> PowerExperimentResult:
    """Detection power of scan thresholds built from each rate estimator.

    Per replicate, the maximal window score overlapping each hot-spot
    segment is recorded; a segment counts as detected when that maximum
    reaches the threshold. Thresholds come from inverting the p-value
    approximation at ``alpha`` under each estimator's scenario-averaged rate
    (or per replicate with ``per_replicate_thresholds``). One ScoreModel of
    the generator model scores the events and solves the tilts. The window
    and nu_fixed are checked (scan.check_scan) before any replicate is drawn.
    """
    check_scan(cfg.window, cfg.seq_length, nu_fixed)
    sm = ScoreModel(kind, cfg.model, cfg.half_length)
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
        b = np.array([threshold(float(r)) for r in
                      (rates if per_replicate_thresholds else [mean_rate])])
        detected = seg_max >= b[:, None]
        powers = tuple(float(x) for x in detected.mean(axis=0))
        rows.append(PowerRow(estimator=name, rate=mean_rate, threshold=float(b.mean()),
                             powers=powers))
    return PowerExperimentResult(kind=kind, alpha=alpha,
                                 multipliers=tuple(cfg.multipliers),
                                 replicates=cfg.replicates, rows=tuple(rows),
                                 segment_maxima=seg_max)
