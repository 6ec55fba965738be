import io
import warnings
from dataclasses import replace

import numpy as np
import pytest

from palinscan import (
    CrowdedSegmentError,
    EmptyBankError,
    ExperimentConfig,
    HotspotSpec,
    MarkovModel,
    RateExperimentResult,
    ScoreModel,
    bohv1_model,
    default_hotspot_specs,
    find_palindromes,
    generate_sequence,
    iid_model,
    insert_hotspots,
    markov_rate,
    power_experiment,
    rate_experiment,
    score_mgf,
)
from palinscan.cli import build_parser, run
import palinscan.sim as sim_module
from palinscan.sim import (
    HOTSPOT_LENGTH,
    PLACEMENT_RETRIES,
    TiltedScoreSampler,
    _replicate_rng,
    _segment_window_bounds,
    _validate_specs,
    min_seq_length,
)

from oracles import (
    iid_geometric_mgf,
    mgf_at_length,
    quadratic_hotspots,
    random_model,
    seq_of,
    series_mgf,
)


def cli_output(*argv) -> str:
    """stdout of one palinscan command line run in-process."""
    buf = io.StringIO()
    assert run(build_parser().parse_args(list(argv)), out=buf) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def bank():
    model = bohv1_model()
    seq = generate_sequence(model, 60_000, np.random.default_rng(77))
    return find_palindromes(seq, 6)


class TestHotspotSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            HotspotSpec(start=-1)
        with pytest.raises(ValueError):
            HotspotSpec(start=0, multiplier=0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_multiplier(self, value):
        with pytest.raises(ValueError, match="hotspot multiplier must be finite"):
            HotspotSpec(start=0, multiplier=value)

    def test_stop(self):
        assert HotspotSpec(start=100).stop == 100 + HOTSPOT_LENGTH


class TestExperimentConfig:
    def test_validation(self, bohv1):
        with pytest.raises(ValueError):
            ExperimentConfig(model=bohv1, replicates=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model=bohv1, multipliers=(0.5, 1.0, 1.0))
        with pytest.raises(ValueError):
            ExperimentConfig(model=bohv1, lambda0_target=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_name_the_field(self, bohv1, value):
        # numpy's Poisson draw would fail later with a message naming neither
        with pytest.raises(ValueError, match="lambda0_target must be finite"):
            ExperimentConfig(model=bohv1, lambda0_target=value)
        with pytest.raises(ValueError, match="multipliers must be finite"):
            ExperimentConfig(model=bohv1, multipliers=(1.0, value, 1.0))

    def test_negative_seed_names_the_field(self, bohv1):
        # numpy's SeedSequence would fail later with a message naming nothing
        with pytest.raises(ValueError, match="master_seed must be >= 0"):
            ExperimentConfig(model=bohv1, master_seed=-1)

    def test_default_specs_quarter_points(self, bohv1):
        cfg = ExperimentConfig(model=bohv1, seq_length=100_000)
        specs = default_hotspot_specs(cfg)
        assert [s.start for s in specs] == [24_500, 49_500, 74_500]
        assert [s.stop for s in specs] == [25_500, 50_500, 75_500]

    @pytest.mark.parametrize("segments", [1, 2, 3, 5])
    def test_min_seq_length(self, bohv1, segments):
        cfg = ExperimentConfig(model=bohv1, multipliers=(1.0,) * segments)

        def fits(n):
            try:
                _validate_specs(default_hotspot_specs(replace(cfg, seq_length=n)), n)
            except ValueError:
                return False
            return True

        shortest = min_seq_length(cfg)
        assert not fits(shortest - 1)
        assert all(fits(n) for n in range(shortest, 3 * shortest))


class TestInsertHotspots:
    def _background(self, n=30_000, seed=5):
        return generate_sequence(bohv1_model(), n, np.random.default_rng(seed))

    def test_inserted_centers_are_detected_palindromes(self, bank):
        background = self._background()
        specs = [HotspotSpec(start=5000, multiplier=30.0),
                 HotspotSpec(start=20_000, multiplier=30.0)]
        seq, centers = insert_hotspots(background, specs, bank, 0.00098,
                                       np.random.default_rng(1))
        assert centers == sorted(centers)
        detected = {e.center for e in find_palindromes(seq, 6)}
        for c in centers:
            assert c in detected
            assert any(s.start <= c < s.stop for s in specs)

    def test_deterministic(self, bank):
        background = self._background()
        specs = [HotspotSpec(start=5000, multiplier=10.0)]
        a = insert_hotspots(background, specs, bank, 0.00098,
                            np.random.default_rng(3))
        b = insert_hotspots(background, specs, bank, 0.00098,
                            np.random.default_rng(3))
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_background_untouched_outside_segments(self, bank):
        background = self._background()
        specs = [HotspotSpec(start=5000, multiplier=30.0)]
        seq, _ = insert_hotspots(background, specs, bank, 0.00098,
                                 np.random.default_rng(2))
        outside = np.r_[0:5000, 5000 + HOTSPOT_LENGTH:background.length]
        assert np.array_equal(seq.bases[outside], background.bases[outside])

    def test_overlapping_specs_rejected(self, bank):
        with pytest.raises(ValueError, match="overlap"):
            insert_hotspots(self._background(), [
                HotspotSpec(start=100),
                HotspotSpec(start=800),
            ], bank, 0.00098, np.random.default_rng(0))

    def test_spec_past_end_rejected(self, bank):
        with pytest.raises(ValueError, match="past the sequence end"):
            insert_hotspots(self._background(1000), [HotspotSpec(start=500)],
                            bank, 0.00098, np.random.default_rng(0))

    def test_crowded_segment(self, bank):
        background = self._background()
        specs = [HotspotSpec(start=100, multiplier=5000.0)]
        with pytest.raises(CrowdedSegmentError):
            insert_hotspots(background, specs, bank, 0.01,
                            np.random.default_rng(9))

    # at multiplier 100 a 1000 bp segment draws about 40 (lambda0 4e-4) or
    # 50 (5e-4) patterns of 12 bp or more, so most are redrawn at least
    # once; at 5e-4 some seeds run out of retries (25 of these 200)
    @pytest.mark.parametrize("lambda0, outcomes", [
        (0.0004, {"placed"}),
        (0.0005, {"placed", "crowded"}),
    ], ids=["multiplier100", "crowded"])
    def test_matches_quadratic_overlap_rule(self, bank, lambda0, outcomes):
        background = self._background()
        specs = [HotspotSpec(start=2000, multiplier=100.0),
                 HotspotSpec(start=12_000, multiplier=100.0)]
        seen = set()
        for seed in range(200):
            try:
                expected = quadratic_hotspots(background.bases, specs, bank, lambda0,
                                              np.random.default_rng(seed),
                                              PLACEMENT_RETRIES)
            except CrowdedSegmentError as err:
                with pytest.raises(CrowdedSegmentError) as got:
                    insert_hotspots(background, specs, bank, lambda0,
                                    np.random.default_rng(seed))
                assert str(got.value) == str(err)
                seen.add("crowded")
                continue
            seq, centers = insert_hotspots(background, specs, bank, lambda0,
                                           np.random.default_rng(seed))
            assert np.array_equal(seq.bases, expected[0])
            assert centers == expected[1]
            seen.add("placed")
        assert seen == outcomes

    def test_pattern_wider_than_the_segment_redrawn(self):
        # A bank of two palindromes: one of half-length 510, 1,020 bp, wider
        # than the 1,000 bp segment, and one of half-length 7. About 20
        # placements draw the wide one about half the time; each such draw
        # is redrawn, and only the short pattern is placed.
        short = "CACGTAGCTACGTG"
        bank = find_palindromes(seq_of("AAC" * 170 + "GTT" * 170 + "A" * 10 + short
                                       + "A" * 10), 6)
        assert bank.half_lengths.tolist() == [510, 7]
        seq, centers = insert_hotspots(self._background(5000), [HotspotSpec(start=2000,
                                                                             multiplier=40.0)],
                                       bank, 5e-4, np.random.default_rng(4))
        assert len(centers) >= 10
        for c in centers:
            assert seq_of(short).bases.tolist() == seq.bases[c - 6 : c + 8].tolist()

    def test_empty_bank_rejected(self):
        empty = find_palindromes(seq_of("A" * 100), 6)
        with pytest.raises(EmptyBankError, match="empty"):
            insert_hotspots(self._background(1000), [HotspotSpec(start=0)],
                            empty, 0.1, np.random.default_rng(0))


class TestTiltedSampler:
    def test_pcs_trivial(self, bohv1):
        sm = ScoreModel("pcs", bohv1, 6)
        draws = TiltedScoreSampler(sm, 1.3).draw(np.random.default_rng(0), 100)
        assert np.all(draws == 1.0)

    def test_pls_length_distribution(self, bohv1):
        theta = 1.5
        sm = ScoreModel("pls", bohv1, 6)
        sampler = TiltedScoreSampler(sm, theta)
        n = 200_000
        draws = sampler.draw(np.random.default_rng(42), n)
        norm = sum(
            np.exp(theta * k / 6.0) * mgf_at_length(sm, 0.0, k)
            for k in range(6, 60)
        )
        for k in range(6, 12):
            p_k = np.exp(theta * k / 6.0) * mgf_at_length(sm, 0.0, k) / norm
            emp = float(np.mean(draws == k / 6.0))
            se = np.sqrt(p_k * (1 - p_k) / n)
            assert abs(emp - p_k) < 5 * se + 1e-9

    def test_pls_untilted_matches_raw_length_law(self, bohv1):
        sm = ScoreModel("pls", bohv1, 6)
        draws = TiltedScoreSampler(sm, 0.0).draw(np.random.default_rng(7), 100_000)
        lam = markov_rate(bohv1, 6).value
        p6 = mgf_at_length(sm, 0.0, 6) / lam
        emp = float(np.mean(draws == 1.0))
        assert abs(emp - p6) < 5 * np.sqrt(p6 * (1 - p6) / draws.size)

    def test_bws_mgf_identity(self):
        # under tilt theta, E[exp(s X)] = K(theta + s) / K(theta), with K the
        # MGF. BoHV-1 is too close to symmetric for the start weights to
        # matter visibly; on this model the column form (I - T) pi in place
        # of the row form pi (I - T) would move the ratio by 1.6%, which
        # 150k draws resolve at about 15 SE.
        theta, s = 0.2, -0.15
        pi, trans = random_model(np.random.default_rng(2))
        sm = ScoreModel("bws", MarkovModel(pi=pi, trans=trans), 6)
        draws = TiltedScoreSampler(sm, theta).draw(np.random.default_rng(13), 150_000)
        vals = np.exp(s * draws)
        expected = (series_mgf(pi, trans, 6, theta + s, "bws")
                    / series_mgf(pi, trans, 6, theta, "bws"))
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - expected) < 5 * se

    def test_pls_near_domain_edge(self, bohv1):
        # a tilt close to t_max needs thousands of half-lengths, whose
        # scored exponentials exp(theta k / h) alone overflow; the reference
        # is the resolvent form, which sums no series
        sm = ScoreModel("pls", bohv1, 6)
        theta, s = 0.99 * sm.t_max, -1.0
        draws = TiltedScoreSampler(sm, theta).draw(np.random.default_rng(4), 20_000)
        vals = np.exp(s * draws)
        expected = score_mgf(sm, theta + s) / score_mgf(sm, theta)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - expected) < 5 * se

    def test_bws_untilted_mean_is_cumulant_slope(self, bohv1):
        sm = ScoreModel("bws", bohv1, 6)
        draws = TiltedScoreSampler(sm, 0.0).draw(np.random.default_rng(3), 150_000)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - sm.null_cumulants[1]) < 5 * se

    def test_bws_tilted_mean_shifts_up(self, bohv1):
        sm = ScoreModel("bws", bohv1, 6)
        rng = np.random.default_rng(8)
        m0 = TiltedScoreSampler(sm, 0.0).draw(rng, 50_000).mean()
        m1 = TiltedScoreSampler(sm, 0.3).draw(rng, 50_000).mean()
        assert m1 > m0 + 1.0

    def test_iid_mode_equivalent(self):
        # independent bases (iid_model): under tilt theta, E[exp(s X)] =
        # K(theta + s) / K(theta) with K the closed geometric-law MGF
        pi = np.array([0.1, 0.2, 0.3, 0.4])
        sm = ScoreModel("bws", iid_model(pi), 6)
        theta, s = 0.2, -0.15
        draws = TiltedScoreSampler(sm, theta).draw(np.random.default_rng(123), 100_000)
        vals = np.exp(s * draws)
        expected = (iid_geometric_mgf(pi, 6, theta + s, "bws")
                    / iid_geometric_mgf(pi, 6, theta, "bws"))
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - expected) < 5 * se

    def test_domain_enforced(self, bohv1):
        sm = ScoreModel("bws", bohv1, 6)
        from palinscan import DomainError
        with pytest.raises(DomainError):
            TiltedScoreSampler(sm, 0.99)

    def test_draws_reproducible(self, bohv1):
        sm = ScoreModel("bws", bohv1, 6)
        sampler = TiltedScoreSampler(sm, 0.25)
        a = sampler.draw(np.random.default_rng(5), 1000)
        b = sampler.draw(np.random.default_rng(5), 1000)
        assert np.array_equal(a, b)


class TestSeeding:
    def test_replicates_distinct_and_reproducible(self):
        a0 = _replicate_rng(0, 0).random(4)
        a0_again = _replicate_rng(0, 0).random(4)
        a1 = _replicate_rng(0, 1).random(4)
        assert np.array_equal(a0, a0_again)
        assert not np.array_equal(a0, a1)


class TestSegmentWindowBounds:
    def test_interior(self):
        lo, hi = _segment_window_bounds(HotspotSpec(start=5000), 1000, 20_000)
        assert lo == 4000
        assert hi == 5998

    def test_left_edge(self):
        lo, hi = _segment_window_bounds(HotspotSpec(start=0), 1000, 20_000)
        assert lo == 0

    def test_right_edge(self):
        lo, hi = _segment_window_bounds(HotspotSpec(start=19_000), 1000, 20_000)
        assert hi == 19_000


class TestRateExperiment:
    def _cfg(self, multipliers, reps=4, seed=0):
        return ExperimentConfig(model=bohv1_model(), seq_length=40_000,
                                replicates=reps, multipliers=multipliers,
                                master_seed=seed)

    def test_reproducible(self):
        cfg = self._cfg((10.0, 10.0, 10.0))
        a = rate_experiment(cfg)
        b = rate_experiment(cfg)
        assert a.average_rates.tobytes() == b.average_rates.tobytes()
        assert a.markov_rates.tobytes() == b.markov_rates.tobytes()

    def test_average_rate_inflates_with_multiplier(self):
        quiet = rate_experiment(self._cfg((1.0, 1.0, 1.0)))
        loud = rate_experiment(self._cfg((30.0, 30.0, 30.0)))
        assert loud.average_rate_mean > 1.3 * quiet.average_rate_mean
        # the refitted model barely notices the inserts
        assert abs(loud.markov_rate_mean - quiet.markov_rate_mean) < 0.25 * (
            loud.average_rate_mean - quiet.average_rate_mean
        )

    def test_result_shapes(self):
        res = rate_experiment(self._cfg((2.0, 2.0, 2.0), reps=3))
        assert res.average_rates.shape == (3,)
        assert res.replicates == 3
        assert res.average_rate_se > 0.0

    def test_single_replicate_has_no_standard_error(self):
        # one replicate has no spread: NaN, without numpy's ddof warning
        one = np.array([1e-3])
        res = RateExperimentResult((1.0, 1.0, 1.0), 1, average_rates=one, markov_rates=one)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(res.average_rate_se) and np.isnan(res.markov_rate_se)

    def test_tsv_header(self):
        # the table simulate writes for _cfg((1.0, 1.0, 1.0), reps=2)
        lines = cli_output("simulate", "--length", "40000", "--replicates", "2",
                           "--multipliers", "1,1,1", "--seed", "0").splitlines()
        assert lines[0] == "a1\ta2\ta3\tlambda_avg\tlambda_markov"
        assert len(lines) == 2


class TestPowerExperiment:
    def _cfg(self, reps=3, seed=1):
        return ExperimentConfig(model=bohv1_model(), seq_length=40_000,
                                replicates=reps,
                                multipliers=(30.0, 30.0, 30.0),
                                master_seed=seed)

    def test_lower_threshold_never_loses_power(self):
        # the Markov threshold is the lower one here; each power is the
        # share of replicates whose segment maximum reaches the threshold
        res = power_experiment(self._cfg(reps=4), "pls", alpha=0.05, nu_fixed=1.0)
        avg_row, mk_row = res.rows
        assert [r.estimator for r in res.rows] == ["average", "markov"]
        assert res.segment_maxima.shape == (4, 3)
        assert mk_row.threshold < avg_row.threshold
        assert all(pm >= pa for pa, pm in zip(avg_row.powers, mk_row.powers))
        for row in res.rows:
            expected = (res.segment_maxima >= row.threshold).mean(axis=0)
            assert row.powers == tuple(expected.tolist())

    def test_reproducible_tsv(self):
        # every number of the result, bit for bit
        kw = dict(alpha=0.05, nu_fixed=1.0)
        a, b = (power_experiment(self._cfg(), "pls", **kw) for _ in range(2))
        assert a.segment_maxima.tobytes() == b.segment_maxima.tobytes()
        assert [r.estimator for r in a.rows] == [r.estimator for r in b.rows]
        rows_a, rows_b = (np.array([[r.rate, r.threshold, *r.powers] for r in res.rows])
                          for res in (a, b))
        assert rows_a.tobytes() == rows_b.tobytes()

    def test_computed_thresholds_order(self):
        # the inflated average rate must produce the larger threshold
        res = power_experiment(self._cfg(reps=4), "pls", alpha=0.05, nu_fixed=1.0)
        by_name = {r.estimator: r for r in res.rows}
        assert by_name["average"].rate > by_name["markov"].rate
        assert by_name["average"].threshold > by_name["markov"].threshold

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_under_one_refused_before_a_replicate(self, window, monkeypatch):
        def no_replicates(*args):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(sim_module, "generate_sequence", no_replicates)
        with pytest.raises(ValueError, match=f"window must be >= 1, got {window}"):
            power_experiment(replace(self._cfg(), window=window), "pls", nu_fixed=1.0)

    def test_per_replicate_thresholds(self):
        res = power_experiment(self._cfg(reps=2), "pls", alpha=0.05,
                               nu_fixed=1.0, per_replicate_thresholds=True)
        assert len(res.rows) == 2
        for row in res.rows:
            assert row.threshold > 0

    def test_tsv_layout(self):
        # the table power writes for _cfg(reps=2) with the pls score
        lines = cli_output("power", "--length", "40000", "--replicates", "2",
                           "--multipliers", "30,30,30", "--seed", "1",
                           "--nu-fixed", "1.0").splitlines()
        assert lines[0] == "kind\talpha\tmultipliers\testimator\trate\tthreshold\tpower1\tpower2\tpower3"
        assert lines[1].startswith("pls\t0.05\t30,30,30\taverage")
        assert lines[2].startswith("pls\t0.05\t30,30,30\tmarkov")

    def test_bws_kind_runs(self):
        res = power_experiment(self._cfg(reps=2), "bws", nu_fixed=1.0)
        assert res.kind == "bws"
        assert res.segment_maxima.shape == (2, 3)
        for row in res.rows:
            assert row.threshold > 0
            assert all(0.0 <= p <= 1.0 for p in row.powers)
