"""End-to-end acceptance checks, one test per release criterion.

Each test states its tolerance inline and recomputes any expected value from
an independent construction (exhaustive enumeration, closed forms, or Monte
Carlo with quantified error), so a pass certifies the pipeline rather than
echoing its own output.
"""

import itertools
import time

import numpy as np
import pytest

from palinscan import (
    ExperimentConfig,
    MarkovModel,
    ScoreModel,
    bohv1_model,
    find_palindromes,
    generate_sequence,
    iid_model,
    markov_rate,
    power_experiment,
    rate_experiment,
    score_events,
    score_mgf,
    solve_tilt,
    threshold_for_alpha,
    window_scores,
)

from oracles import iid_match_gamma, overshoot_nu, random_model, series_mgf

GENOME_LENGTH = 135_301
WINDOW = 1000
HALF = 6


def _exhaustive_rate(model: MarkovModel, half: int) -> float:
    """Palindrome probability at one center by scanning every 4^(2*half) string."""
    total = 0.0
    for s in itertools.product(range(4), repeat=2 * half):
        if any(s[i] != 3 - s[2 * half - 1 - i] for i in range(half)):
            continue
        p = model.pi[s[0]]
        for a, b in zip(s, s[1:]):
            p *= model.trans[a, b]
        total += p
    return total


def test_markov_rate_matches_exhaustive_enumeration():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        pi, trans = random_model(rng)
        model = MarkovModel(pi=pi, trans=trans)
        for half in (1, 2, 3):
            got = markov_rate(model, half).value
            want = _exhaustive_rate(model, half)
            worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - start
    assert worst < 1e-12, f"worst enumeration gap {worst:.3e} exceeds 1e-12"
    assert elapsed < 5.0, f"enumeration check took {elapsed:.1f}s (budget 5s)"


def test_markov_rate_reduces_to_iid_power():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pi = rng.dirichlet(np.ones(4))
        model = MarkovModel(pi=pi, trans=np.tile(pi, (4, 1)))
        gamma = iid_match_gamma(pi)
        for half in range(1, 13):
            got = markov_rate(model, half).value
            assert abs(got - gamma**half) < 1e-14, (
                f"half={half}: matrix rate {got!r} vs gamma^half {gamma**half!r}"
            )


def test_bohv1_reference_rates():
    model = bohv1_model()
    lam_iid = markov_rate(iid_model(model.pi), HALF).value
    lam_markov = markov_rate(model, HALF).value
    assert abs(lam_iid - 0.00073) < 1e-5, (
        f"iid rate {lam_iid:.6g} outside 0.00073 +/- 1e-5"
    )
    assert abs(lam_markov - 0.00098) < 5e-5, (
        f"markov rate {lam_markov:.6g} outside 0.00098 +/- 5e-5; the matrix "
        f"product, exhaustive enumeration, and long-run event frequency all "
        f"agree on {lam_markov:.6g} for these parameters, so the nominal "
        f"0.00098 is not reachable without changing the published inputs"
    )


def test_mgf_normalization_and_series_oracle():
    start = time.monotonic()
    model = bohv1_model()
    for kind in ("pls", "bws"):
        sm = ScoreModel(kind, model, HALF)
        at_zero = score_mgf(sm, 0.0)
        assert abs(at_zero - 1.0) < 1e-10, f"{kind} MGF at 0 is {at_zero!r}"
        for frac in np.linspace(0.05, 0.85, 10):
            t = frac * min(sm.t_max, 50.0)
            got = score_mgf(sm, float(t))
            want = series_mgf(model.pi, model.trans, HALF, float(t), kind)
            assert abs(got - want) < 1e-8 * abs(want), (
                f"{kind} MGF at t={t:.4f}: kernel {got!r} vs series {want!r}"
            )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"MGF oracle check took {elapsed:.1f}s (budget 10s)"


def test_hotspot_rate_estimator_robustness():
    start = time.monotonic()
    model = bohv1_model()
    true_rate = markov_rate(model, HALF).value
    nominal = 0.00098

    quiet = rate_experiment(ExperimentConfig(
        model=model, replicates=100, multipliers=(1.0, 1.0, 1.0), master_seed=101))
    for name, value in (("average", quiet.average_rate_mean),
                        ("markov", quiet.markov_rate_mean)):
        assert abs(value / true_rate - 1.0) < 0.15, (
            f"control scenario: {name} estimator mean {value:.6g} deviates "
            f"more than 15% from the generator rate {true_rate:.6g}"
        )

    loud = rate_experiment(ExperimentConfig(
        model=model, replicates=100, multipliers=(30.0, 30.0, 30.0),
        master_seed=101))
    avg_ratio = loud.average_rate_mean / nominal
    markov_ratio = loud.markov_rate_mean / nominal
    assert 1.6 <= avg_ratio <= 2.3, (
        f"hot-spot scenario: average-rate inflation {avg_ratio:.3f} outside [1.6, 2.3]"
    )
    assert 0.90 <= markov_ratio <= 1.25, (
        f"hot-spot scenario: markov-rate ratio {markov_ratio:.3f} outside [0.90, 1.25]"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"rate experiments took {elapsed:.0f}s (budget 600s)"


def test_power_gap_between_estimator_thresholds():
    # alpha sits where both thresholds cross the steep middle of the
    # segment-max distribution; at looser levels both estimators detect
    # nearly every hot spot and the contrast drowns in binomial noise at
    # 100 replicates. nu_fixed=1.0 makes each threshold the exact solution
    # of p(b)=alpha, so the comparison isolates the estimator effect.
    cfg = ExperimentConfig(model=bohv1_model(), replicates=100,
                           multipliers=(10.0, 10.0, 10.0), master_seed=1)
    for kind in ("pls", "bws"):
        result = power_experiment(cfg, kind, alpha=0.0005, nu_fixed=1.0)
        by_name = {row.estimator: row for row in result.rows}
        avg_row, markov_row = by_name["average"], by_name["markov"]
        assert avg_row.threshold > markov_row.threshold, (
            f"{kind}: average-rate threshold {avg_row.threshold:.4f} does not "
            f"exceed markov threshold {markov_row.threshold:.4f}"
        )
        for seg, (p_avg, p_markov) in enumerate(zip(avg_row.powers,
                                                    markov_row.powers)):
            assert p_markov - p_avg >= 0.05, (
                f"{kind} segment {seg}: markov-threshold power {p_markov:.3f} "
                f"vs average-threshold power {p_avg:.3f} (gap < 0.05)"
            )


def test_null_scan_calibration():
    model = bohv1_model()
    lam0 = markov_rate(model, HALF).value
    sm = ScoreModel("pls", model, HALF)
    b = threshold_for_alpha(0.05, WINDOW, GENOME_LENGTH, lam0, sm,
                            nu_entropy=20240817)
    hits = 0
    reps = 500
    for i in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(303, spawn_key=(i,)))
        seq = generate_sequence(model, GENOME_LENGTH, rng)
        events = find_palindromes(seq, HALF)
        series = window_scores(events.centers, score_events(events, sm), WINDOW,
                               GENOME_LENGTH)
        if series.peak()[1] >= b:
            hits += 1
    rate = hits / reps
    assert 0.01 <= rate <= 0.12, (
        f"null exceedance {rate:.3f} ({hits}/{reps}) at threshold {b:.4f} "
        f"outside [0.01, 0.12] for nominal alpha 0.05"
    )


def test_overshoot_estimates_consistent():
    model = bohv1_model()
    lam0 = markov_rate(model, HALF).value
    sm = ScoreModel("pls", model, HALF)
    tilt = solve_tilt(lam0, sm, 10.0, WINDOW)
    nu_a, se_a = overshoot_nu(tilt, sm, np.random.default_rng(11))
    nu_b, se_b = overshoot_nu(tilt, sm, np.random.default_rng(22))
    for nu in (nu_a, nu_b):
        assert 0.0 < nu <= 1.0, f"overshoot estimate {nu!r} outside (0, 1]"
    gap = abs(nu_a - nu_b)
    combined = np.hypot(se_a, se_b)
    assert gap <= 3.0 * combined, (
        f"independent overshoot estimates {nu_a:.5f} and {nu_b:.5f} differ by "
        f"{gap:.5f} > 3 x combined se {combined:.5f}"
    )

    pcs = ScoreModel("pcs", bohv1_model(), HALF)
    small = solve_tilt(1e-7, pcs, 0.01, WINDOW)
    nu_c, se_c = overshoot_nu(small, pcs, np.random.default_rng(33))
    assert abs(nu_c - 1.0) <= 3.0 * se_c + 1e-12, (
        f"count-score small-rate overshoot {nu_c:.6f} (se {se_c:.2e}) "
        f"not within 3 se of 1"
    )


def test_seeded_experiments_byte_identical():
    # a seed fixes every number of both experiments, bit for bit
    model = bohv1_model()
    cfg = ExperimentConfig(model=model, seq_length=30_000, replicates=3,
                           multipliers=(10.0, 10.0, 10.0), master_seed=404)
    rate_a, rate_b = rate_experiment(cfg), rate_experiment(cfg)
    assert rate_a.average_rates.tobytes() == rate_b.average_rates.tobytes()
    assert rate_a.markov_rates.tobytes() == rate_b.markov_rates.tobytes()

    power_a, power_b = (power_experiment(cfg, "pls", nu_fixed=1.0) for _ in range(2))
    assert power_a.segment_maxima.tobytes() == power_b.segment_maxima.tobytes()
    assert [r.estimator for r in power_a.rows] == [r.estimator for r in power_b.rows]
    rows_a, rows_b = (np.array([[r.rate, r.threshold, *r.powers] for r in res.rows])
                      for res in (power_a, power_b))
    assert rows_a.tobytes() == rows_b.tobytes()
