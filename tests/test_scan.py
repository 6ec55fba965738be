import numpy as np
import pytest

from palinscan import (
    DomainError,
    LadderCapError,
    ScoreModel,
    bohv1_model,
    llr_statistics,
    log_mgf_double_prime,
    log_mgf_prime,
    markov_rate,
    overshoot_nu,
    p_value,
    score_mgf,
    solve_tilt,
    threshold_for_alpha,
    window_scores,
)
import palinscan.scan as scan_module
from palinscan.scan import WindowSeries

from oracles import window_sums

W = 135_301
WINDOW = 1000


@pytest.fixture(scope="module")
def lam0():
    return markov_rate(bohv1_model(), 6).value


@pytest.fixture(scope="module")
def pls():
    return ScoreModel("pls", bohv1_model(), 6)


@pytest.fixture(scope="module")
def bws():
    return ScoreModel("bws", bohv1_model(), 6)


@pytest.fixture(scope="module")
def pcs():
    return ScoreModel("pcs", bohv1_model(), 6)


class TestWindowScores:
    def test_matches_quadratic_oracle(self, rng):
        total = 300
        window = 40
        events = [
            (int(c), float(s))
            for c, s in zip(rng.integers(0, total, 25), rng.random(25) * 3)
        ]
        series = window_scores(events, window, total)
        assert np.allclose(series.values, window_sums(events, window, total))

    def test_window_covers_positions_after_t(self):
        # window at t covers centres t+1 .. t+window
        series = window_scores([(5, 2.0)], 5, 20)
        expected_ts = [t for t in range(16) if t + 1 <= 5 <= t + 5]
        got = np.flatnonzero(series.values > 0).tolist()
        assert got == expected_ts

    def test_empty_events(self):
        series = window_scores([], 10, 50)
        assert series.values.shape == (41,)
        assert series.max_value == 0.0

    def test_argmax_and_max(self):
        series = window_scores([(10, 1.0), (11, 2.0), (30, 0.5)], 5, 50)
        assert series.max_value == 3.0
        assert series.values[series.argmax] == 3.0

    def test_total_equals_window(self):
        series = window_scores([(3, 1.5)], 10, 10)
        assert series.values.shape == (1,)
        assert series.values[0] == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            window_scores([], 0, 10)
        with pytest.raises(ValueError):
            window_scores([], 20, 10)
        with pytest.raises(ValueError):
            window_scores([(25, 1.0)], 5, 20)  # centre outside sequence

    def test_series_is_frozen(self):
        series = window_scores([(3, 1.0)], 5, 20)
        with pytest.raises(ValueError):
            series.values[0] = 9.9


class TestSolveTilt:
    def test_pcs_closed_form(self, lam0, pcs):
        for b in (2.0, 5.0, 11.0):
            tilt = solve_tilt(lam0, pcs, b, WINDOW)
            assert tilt.lambda1 == pytest.approx(b / WINDOW, rel=1e-12)
            assert tilt.theta1 == pytest.approx(np.log(b / (WINDOW * lam0)), rel=1e-10)

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    def test_centering_condition_holds(self, kind, lam0):
        sm = ScoreModel(kind, bohv1_model(), 6)
        b = 10.0 if kind == "pls" else 120.0
        tilt = solve_tilt(lam0, sm, b, WINDOW)
        lhs = WINDOW * tilt.lambda1 * log_mgf_prime(sm, tilt.theta1)
        assert lhs == pytest.approx(b, rel=1e-8)
        # rate matching ties lambda1 to the MGF value
        assert tilt.lambda1 == pytest.approx(
            lam0 * score_mgf(sm, tilt.theta1), rel=1e-10
        )

    def test_literal_condition_variant(self, lam0, pls):
        b = 10.0
        tilt = solve_tilt(lam0, pls, b, WINDOW, literal_condition=True)
        lhs = tilt.lambda1 * log_mgf_prime(pls, tilt.theta1)
        assert lhs == pytest.approx(b, rel=1e-8)

    def test_threshold_at_null_mean_gives_zero_tilt(self, lam0, pls):
        null_mean = WINDOW * lam0 * log_mgf_prime(pls, 0.0)
        tilt = solve_tilt(lam0, pls, null_mean, WINDOW)
        assert tilt.theta1 == 0.0
        assert tilt.lambda1 == pytest.approx(lam0)

    def test_below_null_mean_rejected(self, lam0, pls):
        with pytest.raises(ValueError, match="mean"):
            solve_tilt(lam0, pls, 0.5, WINDOW)

    def test_monotone_in_threshold(self, lam0, pls):
        tilts = [solve_tilt(lam0, pls, b, WINDOW).theta1 for b in (5.0, 8.0, 12.0)]
        assert tilts == sorted(tilts)
        assert tilts[0] > 0.0


class TestPvalue:
    def test_pcs_formula_recomputed(self, lam0, pcs):
        b = 9.0
        rep = p_value(b, WINDOW, W, lam0, pcs, nu_fixed=1.0)
        lam1 = b / WINDOW
        theta1 = np.log(lam1 / lam0)
        exponent = b * theta1 - WINDOW * (lam1 - lam0)
        mean_inc = lam1 - lam0  # phi'(theta) = 1 for counts
        local = 1.0 / np.sqrt(2.0 * np.pi * WINDOW * lam1)
        hits = (W - WINDOW) * mean_inc * np.exp(-exponent) * local
        assert rep.p == pytest.approx(-np.expm1(-hits), rel=1e-10)
        assert rep.rate_function == pytest.approx(exponent / WINDOW, rel=1e-12)

    def test_ey1_literal_variant(self, lam0, pcs):
        b = 9.0
        base = p_value(b, WINDOW, W, lam0, pcs, nu_fixed=1.0)
        lit = p_value(b, WINDOW, W, lam0, pcs, nu_fixed=1.0, ey1_literal=True)
        # for counts: delta*(lambda1*phi' - lambda0*phi'(0)) = b/w - lambda0,
        # while the literal form uses b - lambda0 (order window/1 larger)
        ratio = np.log1p(-lit.p) / np.log1p(-base.p)
        expected = (b - lam0 * WINDOW * 1.0 / WINDOW) / (b / WINDOW - lam0) / WINDOW
        assert ratio == pytest.approx(expected * WINDOW, rel=1e-6)

    def test_small_tilt_shortcut(self, lam0, pls):
        # tiny tilts skip the Monte Carlo (no rng needed) and pin nu at its
        # zero-tilt limit
        null_mean = WINDOW * lam0 * log_mgf_prime(pls, 0.0)
        rep = p_value(null_mean * 1.001, WINDOW, W, lam0, pls)
        assert rep.nu == 1.0
        assert rep.nu_se == 0.0
        assert 0.0 <= rep.p <= 1.0

    def test_requires_rng_for_monte_carlo(self, lam0, pls):
        with pytest.raises(ValueError, match="rng"):
            p_value(10.0, WINDOW, W, lam0, pls)

    def test_below_mean_rejected(self, lam0, pls):
        with pytest.raises(ValueError):
            p_value(0.2, WINDOW, W, lam0, pls, nu_fixed=1.0)

    def test_monotone_decreasing_on_decay_branch(self, lam0, pls):
        ps = [
            p_value(b, WINDOW, W, lam0, pls, nu_fixed=1.0).p
            for b in (8.0, 10.0, 12.0, 14.0)
        ]
        assert ps == sorted(ps, reverse=True)

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    def test_reuses_cumulants_at_tilt_root(self, kind, lam0, monkeypatch):
        sm = ScoreModel(kind, bohv1_model(), 6)
        b = 10.0 if kind == "pls" else 120.0
        calls = []
        kernel = scan_module.cumulants
        monkeypatch.setattr(scan_module, "cumulants",
                            lambda *a: calls.append(a) or kernel(*a))
        solve_tilt(lam0, sm, b, WINDOW)
        tilt_calls = len(calls)
        calls.clear()
        p_value(b, WINDOW, W, lam0, sm, nu_fixed=1.0)
        assert len(calls) == tilt_calls

    def test_report_fields(self, lam0, bws):
        rng = np.random.default_rng(0)
        rep = p_value(125.0, WINDOW, W, lam0, bws, rng=rng, n_walks=5000)
        assert rep.window == WINDOW
        assert rep.total_length == W
        assert 0.0 < rep.nu <= 1.0
        assert rep.nu_se > 0.0
        assert 0.0 <= rep.p <= 1.0


class TestOvershoot:
    def test_unit_interval(self, lam0, pls, bws):
        for sm, b in ((pls, 10.0), (bws, 125.0)):
            tilt = solve_tilt(lam0, sm, b, WINDOW)
            nu, se = overshoot_nu(tilt, sm, np.random.default_rng(4), n_walks=20_000)
            assert 0.0 < nu <= 1.0
            assert 0.0 < se < 0.05

    def test_independent_estimates_agree(self, lam0, pls):
        tilt = solve_tilt(lam0, pls, 10.0, WINDOW)
        nu1, se1 = overshoot_nu(tilt, pls, np.random.default_rng(101), n_walks=40_000)
        nu2, se2 = overshoot_nu(tilt, pls, np.random.default_rng(202), n_walks=40_000)
        assert abs(nu1 - nu2) < 3.0 * np.hypot(se1, se2)

    def test_reproducible_for_equal_seeds(self, lam0, bws):
        tilt = solve_tilt(lam0, bws, 125.0, WINDOW)
        a = overshoot_nu(tilt, bws, np.random.default_rng(7), n_walks=5000)
        b = overshoot_nu(tilt, bws, np.random.default_rng(7), n_walks=5000)
        assert a == b

    def test_pcs_small_rate_limit(self, pcs):
        # with a vanishing event rate the ladder height is exactly one count,
        # making the correction collapse to 1
        tiny = 1e-7
        tilt = solve_tilt(tiny, pcs, 8.0 * WINDOW * tiny * 100, WINDOW)
        nu, se = overshoot_nu(tilt, pcs, np.random.default_rng(11), n_walks=20_000)
        assert abs(nu - 1.0) <= 3.0 * max(se, 1e-12) + 1e-9

    def test_step_cap(self, lam0, pls):
        # a tilt barely above the shortcut region drifts slowly; a tiny step
        # cap must trip the guard rather than stall
        b = WINDOW * lam0 * log_mgf_prime(pls, 0.0) * 1.2
        tilt = solve_tilt(lam0, pls, b, WINDOW)
        with pytest.raises(LadderCapError):
            overshoot_nu(tilt, pls, np.random.default_rng(3), n_walks=500,
                         step_cap=50)


class TestThresholdForAlpha:
    def test_inversion_exact_with_fixed_nu(self, lam0):
        for kind, alpha in (("pcs", 0.05), ("pls", 0.05), ("pls", 0.01), ("bws", 0.05)):
            sm = ScoreModel(kind, bohv1_model(), 6)
            b = threshold_for_alpha(alpha, WINDOW, W, lam0, sm, nu_fixed=1.0)
            rep = p_value(b, WINDOW, W, lam0, sm, nu_fixed=1.0)
            assert rep.p == pytest.approx(alpha, abs=1e-4)

    def test_monte_carlo_variant_lands_near_alpha(self, lam0, pls):
        b = threshold_for_alpha(0.05, WINDOW, W, lam0, pls, nu_entropy=42,
                                n_walks=20_000)
        rep = p_value(b, WINDOW, W, lam0, pls,
                      rng=np.random.default_rng(999), n_walks=100_000)
        assert 0.03 < rep.p < 0.07

    def test_deterministic_given_entropy(self, lam0, pls):
        kw = dict(nu_entropy=11, n_walks=10_000)
        assert threshold_for_alpha(0.05, WINDOW, W, lam0, pls, **kw) == \
            threshold_for_alpha(0.05, WINDOW, W, lam0, pls, **kw)

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    @pytest.mark.parametrize("alpha", [0.05, 0.001])
    def test_monte_carlo_nu_fixed_point(self, kind, alpha, lam0, monkeypatch):
        # A handful of Monte Carlo nu estimates per threshold, not one per
        # candidate, and the search stops on its rule: |p - alpha| <= 1e-6,
        # or two estimated thresholds that straddle alpha within 1e-6 * b.
        # The second branch is real: with 100k walks the frozen-entropy nu
        # steps by about 1e-4 (relative) between nearby thresholds, which
        # moves p by more than 1e-6 at alpha = 0.05, and bisecting such a
        # step down to the bracket rule costs extra estimates.
        sm = ScoreModel(kind, bohv1_model(), 6)
        calls, gaps = [], {}

        def counted(*args, **kwargs):
            calls.append(args[0].threshold)
            return overshoot_nu(*args, **kwargs)

        def recorded(b, *args, **kwargs):
            rep = p_value(b, *args, **kwargs)
            if kwargs.get("rng") is not None:
                gaps[b] = rep.p - alpha
            return rep

        monkeypatch.setattr(scan_module, "overshoot_nu", counted)
        monkeypatch.setattr(scan_module, "p_value", recorded)
        b_fixed = threshold_for_alpha(alpha, WINDOW, W, lam0, sm, nu_fixed=1.0)
        for entropy in (1, 2, 3):
            calls.clear()
            gaps.clear()
            b = threshold_for_alpha(alpha, WINDOW, W, lam0, sm, nu_entropy=entropy)
            estimates = len(calls)
            assert b < b_fixed
            rep = p_value(b, WINDOW, W, lam0, sm, rng=np.random.default_rng(entropy))
            if abs(rep.p - alpha) <= 1e-6:
                assert 1 <= estimates <= 8
            else:
                near = [g for x, g in gaps.items() if abs(x - b) <= 1e-6 * b]
                assert min(near) < 0.0 < max(near)
                assert estimates <= 16
        kw = dict(nu_entropy=1)
        assert threshold_for_alpha(alpha, WINDOW, W, lam0, sm, **kw) == \
            threshold_for_alpha(alpha, WINDOW, W, lam0, sm, **kw)

    def test_smaller_alpha_larger_threshold(self, lam0, pls):
        b5 = threshold_for_alpha(0.05, WINDOW, W, lam0, pls, nu_fixed=1.0)
        b1 = threshold_for_alpha(0.01, WINDOW, W, lam0, pls, nu_fixed=1.0)
        assert b1 > b5

    def test_unattainable_alpha(self, lam0, pls):
        # with only 200 windows the exceedance probability peaks well below
        # 0.9, so no threshold can attain that alpha
        with pytest.raises(DomainError, match="alpha"):
            threshold_for_alpha(0.9, WINDOW, 1200, lam0, pls, nu_fixed=1.0)


class TestLlrStatistics:
    def test_recomputed_by_hand(self, lam0, pls):
        tilt = solve_tilt(lam0, pls, 10.0, WINDOW)
        series = window_scores([(100, 2.0), (150, 1.0)], WINDOW, 5000)
        counts = window_scores([(100, 1.0), (150, 1.0)], WINDOW, 5000)
        stats = llr_statistics(series, tilt, count_series=counts)
        assert stats.score_max == series.max_value
        assert stats.count_max == counts.max_value
        expected_count_llr = (
            counts.max_value * np.log(tilt.lambda1 / tilt.lambda0)
            - (tilt.lambda1 - tilt.lambda0) * WINDOW
        )
        assert stats.count_llr == pytest.approx(expected_count_llr, rel=1e-12)
        expected_weighted = (
            tilt.theta1 * series.max_value
            - (tilt.lambda1 - tilt.lambda0) * WINDOW
        )
        assert stats.weighted_llr == pytest.approx(expected_weighted, rel=1e-12)


class TestWindowSeries:
    def test_argmax_computed_once(self, monkeypatch):
        series = window_scores([(10, 1.0), (11, 2.0), (30, 0.5)], 5, 50)
        calls = []
        argmax = np.argmax
        monkeypatch.setattr(np, "argmax", lambda *a: calls.append(a) or argmax(*a))
        assert (series.argmax, series.max_value, series.max_value) == (6, 3.0, 3.0)
        assert len(calls) == 1

    def test_length_validation(self):
        with pytest.raises(ValueError):
            WindowSeries(window=10, total_length=50, values=np.zeros(5))
