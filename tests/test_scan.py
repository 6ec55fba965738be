from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palinscan import (
    ConvergenceError,
    DomainError,
    ScoreModel,
    analytic_nu,
    bohv1_model,
    cumulants,
    iid_model,
    markov_rate,
    p_value,
    score_mgf,
    solve_tilt,
    threshold_for_alpha,
    window_scores,
)
import palinscan.mgf as mgf_module
import palinscan.scan as scan_module
from palinscan.scan import TiltSolution, WindowSeries, _nu_tilt_floor

from oracles import (
    LadderCapError,
    bws_domain_edge,
    bws_powers,
    column_start_weights,
    dense_window_sums,
    iid_match_gamma,
    ladder_nu_series,
    literal_threshold,
    matrix_form_mgf,
    overshoot_nu,
    poisson_compound_pmf,
    quadrature_nu,
    quasi_matrix,
    window_sums,
)
from test_cli import invoke
from test_mgf import markov_models

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


# (lambda0, threshold) pairs of which one is not finite, or lambda0 not positive
BAD_RATE_OR_THRESHOLD = [(np.nan, 5.0), (np.inf, 5.0), (0.0, 5.0), (-1e-3, 5.0),
                         (1e-3, np.nan), (1e-3, np.inf), (1e-3, -np.inf)]


def fresh_model_without_kernel(monkeypatch):
    """A pls model with nothing cached, and an MGF kernel that fails the
    test when either of its entry points is called."""
    def refuse(*args, **kwargs):
        raise AssertionError("the MGF kernel was called")
    sm = ScoreModel("pls", bohv1_model(), 6)
    for name in ("_mgf_jet", "_mgf_value"):
        monkeypatch.setattr(mgf_module, name, refuse)
    monkeypatch.setattr(scan_module, "_mgf_value", refuse)  # analytic_nu's name
    return sm


def series_of(events, window, total):
    """window_scores over (position, score) pairs in increasing position."""
    positions = np.array([p for p, _ in events], dtype=np.int64)
    return window_scores(positions, [x for _, x in events], window, total)


class TestWindowScores:
    def test_matches_quadratic_oracle(self, rng):
        total = 300
        window = 40
        events = [
            (int(c), float(s))
            for c, s in zip(np.sort(rng.choice(total, 25, replace=False)),
                            rng.random(25) * 3)
        ]
        series = series_of(events, window, total)
        sums = series.sums(np.arange(total - window + 1))
        assert np.allclose(sums, window_sums(events, window, total))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_dense_prefix_sum(self, data):
        # small integer (pcs-like) scores tie often; the window may span the
        # whole sequence, and the event list may be empty
        total = data.draw(st.integers(1, 60))
        window = data.draw(st.integers(1, total))
        score = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 0.1, 1 / 3]),
                          st.floats(0.0, 1e3))
        positions = sorted(data.draw(st.lists(st.integers(0, total - 1),
                                              unique=True, max_size=20)))
        events = [(p, data.draw(score)) for p in positions]
        dense = dense_window_sums(events, window, total)
        series = series_of(events, window, total)
        assert series.peak() == (int(np.argmax(dense)), dense.max())
        # segment maxima, as power_experiment takes them
        lo = data.draw(st.integers(0, total - window))
        hi = data.draw(st.integers(lo, total - window))
        segment = dense[lo : hi + 1]
        assert series.peak(lo, hi) == (lo + int(np.argmax(segment)), segment.max())
        assert np.array_equal(series.sums(np.arange(total - window + 1)), dense)

    def test_unsorted_input(self):
        # positions are a table's centres, so they must strictly increase
        for positions in ([30, 11, 10], [10, 11, 11]):
            with pytest.raises(ValueError, match="increase"):
                window_scores(np.array(positions), [0.5, 2.0, 1.0], 5, 50)

    def test_window_covers_positions_after_t(self):
        # window at t covers centres t+1 .. t+window
        series = series_of([(5, 2.0)], 5, 20)
        expected_ts = [t for t in range(16) if t + 1 <= 5 <= t + 5]
        got = np.flatnonzero(series.sums(np.arange(16)) > 0).tolist()
        assert got == expected_ts

    def test_empty_events(self):
        series = series_of([], 10, 50)
        assert series.peak() == (0, 0.0)
        assert np.array_equal(series.sums(np.arange(41)), np.zeros(41))

    def test_argmax_and_max(self):
        series = series_of([(10, 1.0), (11, 2.0), (30, 0.5)], 5, 50)
        assert series.peak() == (6, 3.0)
        assert series.sums([6]).tolist() == [3.0]
        # the peak sums only the starts whose windows end on an event
        series = series_of([(5, 1.0), (9_999_999, 2.0)], 1000, 10_000_000)
        assert series.peak() == (9_998_999, 2.0)
        assert series.peak(0, 5000) == (0, 1.0)

    def test_total_equals_window(self):
        series = series_of([(3, 1.5)], 10, 10)
        assert series.peak() == (0, 1.5)
        assert series.sums([0]).tolist() == [1.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            series_of([], 0, 10)
        with pytest.raises(ValueError):
            series_of([], 20, 10)
        with pytest.raises(ValueError):
            series_of([(25, 1.0)], 5, 20)  # centre outside sequence
        with pytest.raises(ValueError):
            window_scores(np.array([3, 7]), [1.0], 5, 20)  # one score short

    @pytest.mark.parametrize("score", [-1.0, -1e-300, np.inf, np.nan])
    def test_rejects_negative_and_non_finite_scores(self, score):
        with pytest.raises(ValueError, match="non-negative"):
            series_of([(3, 1.0), (7, score)], 5, 20)

    def test_peak_range_validation(self):
        series = series_of([(3, 1.0)], 5, 20)
        for lo, hi in ((-1, 3), (4, 3), (0, 16)):
            with pytest.raises(ValueError):
                series.peak(lo, hi)

    def test_series_is_frozen(self):
        series = series_of([(3, 1.0)], 5, 20)
        with pytest.raises(ValueError):
            series.positions[0] = 4
        with pytest.raises(ValueError):
            series.cumulative[1] = 9.9


class TestSolveTilt:
    def test_pcs_closed_form(self, lam0, pcs):
        for b in (2.0, 5.0, 11.0):
            tilt = solve_tilt(lam0, pcs, b, WINDOW)
            assert tilt.lambda1 == pytest.approx(b / WINDOW, rel=1e-12)
            assert tilt.theta1 == pytest.approx(np.log(b / (WINDOW * lam0)), rel=1e-10)

    def test_pcs_tilt_is_exactly_the_log_ratio(self, lam0, pcs):
        # phi(theta) = theta and phi' = 1 make the tilt equation theta =
        # log(b / null window mean), which solve_tilt returns bit for bit
        null_mean = scan_module.null_window_mean(lam0, pcs, WINDOW)
        for b in null_mean * np.geomspace(1.001, 1e4, 50):
            tilt = solve_tilt(lam0, pcs, b, WINDOW)
            assert tilt.theta1 == np.log(b / null_mean)
            assert tilt.cumulants == (tilt.theta1, 1.0, 0.0)

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    def test_centering_condition_holds(self, kind, lam0):
        sm = ScoreModel(kind, bohv1_model(), 6)
        b = 10.0 if kind == "pls" else 120.0
        tilt = solve_tilt(lam0, sm, b, WINDOW)
        lhs = WINDOW * tilt.lambda1 * cumulants(sm, tilt.theta1)[1]
        assert lhs == pytest.approx(b, rel=1e-8)
        # rate matching ties lambda1 to the MGF value
        assert tilt.lambda1 == pytest.approx(
            lam0 * score_mgf(sm, tilt.theta1), rel=1e-10
        )

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_threshold_at_null_mean_has_no_tilt(self, kind, lam0, bohv1):
        # every threshold up to the null mean's rounding band is refused,
        # and the next float above that band has a positive tilt
        sm = ScoreModel(kind, bohv1, 6)
        null_mean = scan_module.null_window_mean(lam0, sm, WINDOW)
        band = null_mean * (1.0 + 1e-12)
        for b in (null_mean, np.nextafter(null_mean, np.inf), band):
            assert not scan_module.exceeds_null_mean(lam0, sm, b, WINDOW)
            with pytest.raises(DomainError, match="null window mean"):
                solve_tilt(lam0, sm, b, WINDOW)
        above = np.nextafter(band, np.inf)
        assert scan_module.exceeds_null_mean(lam0, sm, above, WINDOW)
        assert solve_tilt(lam0, sm, above, WINDOW).theta1 > 0.0

    def test_below_null_mean_rejected(self, lam0, pls):
        with pytest.raises(DomainError, match="mean"):
            solve_tilt(lam0, pls, 0.5, WINDOW)

    @pytest.mark.parametrize("lambda0,threshold", BAD_RATE_OR_THRESHOLD)
    def test_bad_rate_or_threshold_rejected_before_the_kernel(self, lambda0, threshold,
                                                              monkeypatch):
        sm = fresh_model_without_kernel(monkeypatch)
        with pytest.raises(ValueError, match="lambda0|threshold"):
            solve_tilt(lambda0, sm, threshold, WINDOW)

    def test_monotone_in_threshold(self, lam0, pls):
        tilts = [solve_tilt(lam0, pls, b, WINDOW).theta1 for b in (5.0, 8.0, 12.0)]
        assert tilts == sorted(tilts)
        assert tilts[0] > 0.0

    @staticmethod
    def assert_round_trip(lam0, sm, theta):
        # the threshold of the tilt theta in closed form, solved back by
        # Newton steps to theta and lambda1, relative to 1e-12
        closed = scan_module._tilt_at(lam0, sm, theta, WINDOW)
        solved = solve_tilt(lam0, sm, closed.threshold, WINDOW)
        assert abs(solved.theta1 / theta - 1.0) <= 1e-12, theta
        assert abs(solved.lambda1 / closed.lambda1 - 1.0) <= 1e-12, theta

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    def test_closed_form_threshold_round_trip(self, kind, lam0, bohv1):
        sm = ScoreModel(kind, bohv1, 6)
        for theta in np.geomspace(1e-3, 0.9 * sm.t_max, 40):
            self.assert_round_trip(lam0, sm, theta)

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(model=markov_models(), frac=st.floats(0.0, 1.0))
    def test_closed_form_threshold_round_trip_on_random_chains(self, kind, model, frac):
        sm = ScoreModel(kind, model, 6)
        # log-uniform in [1e-3, 0.9 t_max]
        self.assert_round_trip(sm.rate, sm, 1e-3 * (900.0 * sm.t_max) ** frac)


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

    def test_small_tilt_shortcut(self, lam0, pls):
        # small tilts take the analytic nu too, which tends to its zero-tilt
        # limit 1; a tilt far below the interpolation floor stays in (0, 1]
        null_mean = WINDOW * lam0 * pls.null_cumulants[1]
        for excess, tol in ((1e-3, 1e-4), (1e-9, 1e-9)):
            rep = p_value(null_mean * (1.0 + excess), WINDOW, W, lam0, pls)
            assert rep.nu == analytic_nu(rep.tilt, pls)
            assert 1.0 - tol < rep.nu <= 1.0
            assert rep.nu_se == 0.0
            assert 0.0 <= rep.p <= 1.0

    def test_no_rng_needed(self, lam0, pls):
        rep = p_value(10.0, WINDOW, W, lam0, pls)
        assert 0.0 < rep.nu < 1.0
        assert rep.nu_se == 0.0
        with_rng = p_value(10.0, WINDOW, W, lam0, pls, rng=np.random.default_rng(5))
        assert (with_rng.p, with_rng.nu) == (rep.p, rep.nu)

    def test_below_mean_rejected(self, lam0, pls):
        with pytest.raises(ValueError):
            p_value(0.2, WINDOW, W, lam0, pls, nu_fixed=1.0)

    @pytest.mark.parametrize("total", [WINDOW, WINDOW - 1])  # w = W and w = W + 1
    def test_window_not_shorter_than_sequence_refused_before_the_kernel(
            self, total, lam0, monkeypatch):
        sm = fresh_model_without_kernel(monkeypatch)
        with pytest.raises(DomainError, match=f"w={WINDOW} .* W={total}$"):
            p_value(10.0, WINDOW, total, lam0, sm, nu_fixed=1.0)
        with pytest.raises(DomainError, match=f"w={WINDOW} .* W={total}$"):
            threshold_for_alpha(0.05, WINDOW, total, lam0, sm)

    @pytest.mark.parametrize("window", [0, -5])
    @pytest.mark.parametrize("nu_fixed", [None, 1.0])
    def test_window_under_one_refused_before_the_kernel(self, window, nu_fixed, lam0,
                                                        monkeypatch):
        sm = fresh_model_without_kernel(monkeypatch)
        with pytest.raises(ValueError, match=f"window must be >= 1, got {window}"):
            p_value(5.0, window, W, lam0, sm, nu_fixed=nu_fixed)
        with pytest.raises(ValueError, match=f"window must be >= 1, got {window}"):
            threshold_for_alpha(0.05, window, W, lam0, sm, nu_fixed=nu_fixed)

    @pytest.mark.parametrize("lambda0,threshold", BAD_RATE_OR_THRESHOLD)
    def test_bad_rate_or_threshold_rejected_before_the_kernel(self, lambda0, threshold,
                                                              monkeypatch):
        sm = fresh_model_without_kernel(monkeypatch)
        with pytest.raises(ValueError, match="lambda0|threshold"):
            p_value(threshold, WINDOW, W, lambda0, sm)

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
        rep = p_value(125.0, WINDOW, W, lam0, bws, rng=rng)
        assert [f.name for f in fields(rep)] == ["p", "nu", "nu_se", "tilt"]
        assert (rep.tilt.threshold, rep.tilt.window) == (125.0, WINDOW)
        assert 0.0 < rep.nu <= 1.0
        assert rep.nu_se == 0.0
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
        # a small tilt drifts slowly; a tiny step cap must trip the guard
        # rather than stall
        b = WINDOW * lam0 * pls.null_cumulants[1] * 1.2
        tilt = solve_tilt(lam0, pls, b, WINDOW)
        with pytest.raises(LadderCapError):
            overshoot_nu(tilt, pls, np.random.default_rng(3), n_walks=500,
                         step_cap=50)


def tilt_at(sm, theta, lam0=0.05):
    """The rate-matched tilt solution at a given tilt, per base."""
    jet = cumulants(sm, theta)
    lam1 = lam0 * score_mgf(sm, theta)
    return TiltSolution(lambda0=lam0, lambda1=lam1, theta1=theta,
                        threshold=WINDOW * lam1 * jet[1], window=WINDOW, cumulants=jet)


def per_stretch(tilt, delta):
    """The tilt solution of a walk that steps once per delta bases: both
    rates scaled by delta, theta1 and its cumulants kept."""
    return replace(tilt, lambda0=tilt.lambda0 * delta, lambda1=tilt.lambda1 * delta)


class TestAnalyticNu:
    # (iid, delta): iid evaluates on iid_model(pi), and delta steps the walk
    # once per delta bases (per_stretch)
    MODES = [(False, 1.0), (False, 0.5), (True, 1.0)]
    GRID = {"pcs": (0.05, 0.3, 2.0), "pls": (0.05, 0.3, 2.0), "bws": (0.01, 0.05, 0.2)}

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    @pytest.mark.parametrize("iid,delta", MODES)
    def test_matches_monte_carlo_oracle(self, kind, iid, delta, bohv1):
        sm = ScoreModel(kind, iid_model(bohv1.pi) if iid else bohv1, 6)
        for i, theta in enumerate(self.GRID[kind]):
            tilt = per_stretch(tilt_at(sm, theta), delta)
            nu_mc, se = overshoot_nu(tilt, sm, np.random.default_rng(60 + i),
                                     n_walks=10_000)
            nu = analytic_nu(tilt, sm)
            assert abs(nu - nu_mc) <= 3.0 * se, (theta, nu, nu_mc, se)

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    def test_matches_monte_carlo_at_benchmark_thresholds(self, kind, lam0, bohv1):
        sm = ScoreModel(kind, bohv1, 6)
        for alpha in (0.05, 0.01, 0.001):
            b = threshold_for_alpha(alpha, WINDOW, W, lam0, sm)
            tilt = solve_tilt(lam0, sm, b, WINDOW)
            nu_mc, se = overshoot_nu(tilt, sm, np.random.default_rng(int(1 / alpha)))
            assert abs(analytic_nu(tilt, sm) - nu_mc) <= 3.0 * se

    @pytest.mark.parametrize("lam0,theta,delta", [
        (0.05, 2.0, 1.0), (0.05, 1.0, 0.5), (0.3, 1.0, 1.0)])
    def test_pcs_matches_ladder_series(self, lam0, theta, delta, pcs):
        # counts make the walk a difference of Poisson variables, whose
        # ladder series can be summed directly
        tilt = per_stretch(tilt_at(pcs, theta, lam0), delta)
        unit = np.array([0.0, 1.0])
        up = poisson_compound_pmf(tilt.lambda1, unit)
        down = poisson_compound_pmf(tilt.lambda0, unit)
        assert analytic_nu(tilt, pcs) == pytest.approx(
            ladder_nu_series(*self._eventful(up, down, tilt), 1.0, theta),
            rel=1e-10)

    def test_pls_matches_ladder_series(self, bohv1):
        # for independent bases the half-length is geometric:
        # P(k) = (1 - g) g^(k - h)
        sm = ScoreModel("pls", iid_model(bohv1.pi), 6)
        g = iid_match_gamma(bohv1.pi)
        theta = 1.5
        tilt = tilt_at(sm, theta)
        k = np.arange(6 + 150)
        null = np.where(k >= 6, (1.0 - g) * g ** np.maximum(k - 6, 0), 0.0)
        tilted = null * np.exp(theta * k / 6)
        tilted /= tilted.sum()
        up = poisson_compound_pmf(tilt.lambda1, tilted, terms=25)
        down = poisson_compound_pmf(tilt.lambda0, null, terms=25)
        assert analytic_nu(tilt, sm) == pytest.approx(
            ladder_nu_series(*self._eventful(up, down, tilt), 1.0 / 6, theta),
            rel=1e-9)

    @staticmethod
    def _eventful(up, down, tilt):
        """(pmf, offset) of up - down given at least one event."""
        pmf = np.convolve(up, down[::-1])
        offset = down.size - 1
        mu = tilt.lambda0 + tilt.lambda1
        pmf[offset] -= np.exp(-mu)
        return pmf / -np.expm1(-mu), offset

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_converged_in_nodes(self, kind, lam0, bohv1, monkeypatch):
        # doubling the nodes per panel, or halving the width of the uniform
        # panels, moves nu by less than 1e-8
        cases = []
        for iid, delta in self.MODES:
            sm = ScoreModel(kind, iid_model(bohv1.pi) if iid else bohv1, 6)
            for theta in (0.01, 0.05, 0.2) + ((0.8, 2.0) if kind != "bws" else ()):
                for rate in (lam0, 0.05):
                    tilt = per_stretch(tilt_at(sm, theta, rate), delta)
                    cases.append((tilt, sm, analytic_nu(tilt, sm)))
        for name, factor in (("NU_PANEL_NODES", 2), ("NU_PANEL_WIDTH", 0.5)):
            with monkeypatch.context() as patch:
                patch.setattr(scan_module, name, factor * getattr(scan_module, name))
                for tilt, sm, nu in cases:
                    assert abs(analytic_nu(tilt, sm) - nu) < 1e-8, (name, tilt.theta1)

    # the bws thresholds of the benchmark: alpha = 0.05, 0.01, 0.001 at
    # w = 1000, W = 135,301
    BENCHMARK_BWS = (112.8480032836862, 125.03101154129564, 141.3745951092381)
    # the first and the last tilt at which each of the benchmark's three bws
    # threshold searches evaluates nu
    BENCHMARK_BWS_TILTS = (0.13224, 0.135482, 0.138685, 0.14158, 0.146361, 0.148891)

    @pytest.mark.parametrize("patch", [{}, {"NU_PANEL_NODES": 32}, {"NU_PANEL_WIDTH": 0.25}])
    def test_grid_powers_match_direct_exponentials(self, patch, lam0, bws, monkeypatch):
        # at the benchmark's tilts and at a fine tilt (half-width panels),
        # with the quadrature as it is or patched: the node powers the
        # kernel forms from the panel layout (one table over the starts
        # times one over the offsets) match one exponential per base and
        # node within 1e-13, at every node of the one kernel call
        for name, value in patch.items():
            monkeypatch.setattr(scan_module, name, value)
        grids = []
        kernel = mgf_module._mgf_value
        monkeypatch.setattr(scan_module, "_mgf_value",
                            lambda sm, z: grids.append(z) or kernel(sm, z))
        for theta in self.BENCHMARK_BWS_TILTS + (0.5 * scan_module.NU_FINE_TILT,):
            grids.clear()
            analytic_nu(tilt_at(bws, theta, lam0), bws)
            (grid,) = grids
            assert grid.offsets.size == scan_module.NU_PANEL_NODES
            assert grid.starts.size * grid.offsets.size > grid.points.size
            got = mgf_module._bws_powers(bws, grid)
            expected = bws_powers(bws.model.pi, bws.model.trans, grid.nodes)
            assert np.all(np.abs(got / expected - 1.0) <= 1e-13), theta

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    def test_matches_its_quadrature_on_the_matrix_oracle(self, kind, lam0, bohv1):
        # the same nodes and weights with every MGF value from the matrix
        # form node by node, at the benchmark's thresholds
        sm = ScoreModel(kind, bohv1, 6)
        for alpha in (0.05, 0.01, 0.001):
            tilt = solve_tilt(lam0, sm, threshold_for_alpha(alpha, WINDOW, W, lam0, sm), WINDOW)
            grid, weights = scan_module._nu_quadrature(sm, tilt.theta1)
            expected = quadrature_nu(bohv1.pi, bohv1.trans, 6, kind, tilt,
                                     sm.null_cumulants[1], grid.nodes[2:].imag, weights)
            assert analytic_nu(tilt, sm) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_bws_nu_exponentiates_per_start_and_offset(self, lam0, bws, monkeypatch):
        # one bws nu at a benchmark tilt takes 18 distinct bases to the
        # power 1 - z from the panel layout: 18 x (2 + 80 points, 38 starts
        # and 16 offsets) = 2,448 complex exponentials, against 18 x 690 =
        # 12,420 at one per base and node
        tilt = solve_tilt(lam0, bws, self.BENCHMARK_BWS[1], WINDOW)
        analytic_nu(tilt, bws)  # fill the model's caches
        sizes = []
        exp = np.exp
        monkeypatch.setattr(np, "exp", lambda x, *a, **k: (
            sizes.append(np.size(x) if np.iscomplexobj(x) else 0) or exp(x, *a, **k)))
        analytic_nu(tilt, bws)
        assert 0 < sum(sizes) <= 2500

    def test_bws_cutoff_error(self, lam0, bws, monkeypatch):
        # Doubling the nodes (test_converged_in_nodes) keeps NU_CUTOFF and
        # cannot see the truncation of the bws integral there. Longer cutoffs
        # agree with each other to 1e-7 and move nu by about 3e-6, the
        # accuracy that analytic_nu states.
        tilts = [solve_tilt(lam0, bws, b, WINDOW) for b in self.BENCHMARK_BWS]
        nus = {}
        for cutoff in (scan_module.NU_CUTOFF, 80.0, 160.0):
            monkeypatch.setattr(scan_module, "NU_CUTOFF", cutoff)
            nus[cutoff] = np.array([analytic_nu(tilt, bws) for tilt in tilts])
        assert np.all(np.abs(nus[80.0] / nus[160.0] - 1.0) < 1e-7)
        assert np.all(np.abs(nus[160.0] / nus[20.0] - 1.0) < 5e-6)

    def test_bws_panels_at_benchmark_tilts(self, lam0, bws, monkeypatch):
        # at the benchmark's tilts the 0.5-wide uniform panels need 688
        # nodes, and nu stays within 1e-10 of the 0.25-wide layout's 1,296
        tilts = [solve_tilt(lam0, bws, b, WINDOW) for b in self.BENCHMARK_BWS]
        nus = [analytic_nu(tilt, bws) for tilt in tilts]
        for tilt in tilts:
            assert scan_module._nu_quadrature(bws, tilt.theta1)[1].size == 688
        monkeypatch.setattr(scan_module, "NU_PANEL_WIDTH", 0.25)
        for tilt, nu in zip(tilts, nus):
            assert scan_module._nu_quadrature(bws, tilt.theta1)[1].size == 1296
            assert abs(analytic_nu(tilt, bws) / nu - 1.0) < 1e-10

    def test_bws_nu_is_one_array_evaluation(self, lam0, bws, monkeypatch):
        # all quadrature nodes go through the MGF kernel in one call, as
        # array arithmetic: no per-matrix LAPACK inverse, solve, determinant
        # or matrix power (the model's own caches are filled beforehand)
        tilt = solve_tilt(lam0, bws, self.BENCHMARK_BWS[1], WINDOW)
        kernel_sizes, linalg_calls = [], []
        kernel = mgf_module._mgf_value
        monkeypatch.setattr(scan_module, "_mgf_value", lambda sm, z: (
            kernel_sizes.append(z.nodes.size) or kernel(sm, z)))
        for name in ("inv", "solve", "det", "matrix_power"):
            monkeypatch.setattr(np.linalg, name, lambda *a, f=getattr(np.linalg, name),
                                name=name, **k: linalg_calls.append(name) or f(*a, **k))
        analytic_nu(tilt, bws)
        weights = scan_module._nu_quadrature(bws, tilt.theta1)[1]
        assert kernel_sizes == [2 + weights.size]  # 0 and theta1 go first
        assert linalg_calls == []

    def test_bws_continuous_across_old_small_tilt_cut(self, lam0, bws):
        # nu used to jump to 1 below theta1 = 0.05; read it through p_value
        nus = []
        for theta in (0.0499, 0.0501):
            b = tilt_at(bws, theta, lam0).threshold
            rep = p_value(b, WINDOW, W, lam0, bws, rng=np.random.default_rng(0))
            nus.append(rep.nu)
        assert abs(nus[1] - nus[0]) < 2e-3
        assert nus[0] < 0.75

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_continuous_across_tilt_floor(self, kind, bohv1, lam0):
        # below the floor nu is interpolated to its zero-tilt limit 1
        sm = ScoreModel(kind, bohv1, 6)
        below, above = (analytic_nu(tilt_at(sm, _nu_tilt_floor(sm) * f, lam0), sm)
                        for f in (1.0 - 1e-6, 1.0 + 1e-6))
        assert abs(above - below) < 1e-8
        assert 0.0 < below <= 1.0

    def test_deterministic(self, lam0, bws):
        b = 125.0
        reps = [p_value(b, WINDOW, W, lam0, bws, rng=rng)
                for rng in (None, np.random.default_rng(1), np.random.default_rng(2))]
        assert len({(r.p, r.nu, r.nu_se) for r in reps}) == 1
        thresholds = {threshold_for_alpha(0.01, WINDOW, W, lam0, bws, nu_entropy=e)
                      for e in (None, 1, 2)}
        assert len(thresholds) == 1

    def test_validation(self, lam0, pls):
        # solve_tilt has no zero tilt to give, so one is built by replace
        tilt = solve_tilt(lam0, pls, 9.0, WINDOW)
        with pytest.raises(ValueError, match="theta1 > 0"):
            analytic_nu(replace(tilt, theta1=0.0, lambda1=lam0,
                                cumulants=pls.null_cumulants), pls)

    def test_replaced_tilt_keeps_its_cumulants(self, lam0, pls):
        tilt = solve_tilt(lam0, pls, 9.0, WINDOW)
        assert replace(tilt).cumulants == tilt.cumulants
        assert analytic_nu(replace(tilt), pls) == analytic_nu(tilt, pls)

    # nu at fixed tilts on BoHV-1 (h = 6, w = 1000), as float.hex: for bws a
    # benchmark tilt, one below NU_FINE_TILT (half-width panels) and, for
    # every kind, one below the small-tilt floor (_nu_tilt_floor), where nu
    # is interpolated from its value at the floor
    PINNED_NU = {
        "pcs": {0.3: "0x1.ffe6f7cffd536p-1", 2.0: "0x1.fe37dfaff3260p-1",
                1e-3: "0x1.ffffeda977586p-1"},
        "pls": {0.3: "0x1.fdc93f17ee671p-1", 2.0: "0x1.d4d554032e6a4p-1",
                1e-3: "0x1.ffffa9647e64dp-1"},
        "bws": {0.14: "0x1.c603c76e742f6p-2", 0.05: "0x1.7aa0b59253e31p-1",
                1e-4: "0x1.ffb13edce0420p-1"},
    }

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_nu_pinned_to_the_bit(self, kind, lam0, bohv1):
        sm = ScoreModel(kind, bohv1, 6)
        got = {theta: analytic_nu(tilt_at(sm, theta, lam0), sm).hex()
               for theta in self.PINNED_NU[kind]}
        assert got == self.PINNED_NU[kind]

    @pytest.mark.parametrize("kind, theta", [
        ("pcs", 0.3), ("pcs", 2.0), ("pls", 0.3), ("pls", 2.0),
        ("bws", 0.05), ("bws", 0.14)])  # both bws panel widths
    def test_one_kernel_call_on_the_line(self, kind, theta, lam0, bohv1, monkeypatch):
        # M(0) and M(theta1) first, then only arguments with real part
        # exactly theta1 / 2, whose conjugates stand for M(c - i t)
        sm = ScoreModel(kind, bohv1, 6)
        grids = []
        kernel = mgf_module._mgf_value
        monkeypatch.setattr(scan_module, "_mgf_value",
                            lambda sm, z: grids.append(z) or kernel(sm, z))
        analytic_nu(tilt_at(sm, theta, lam0), sm)
        (grid,) = grids
        z = grid.nodes
        assert np.array_equal(z[:2], [0.0, theta])
        assert np.all(z[2:].real == 0.5 * theta)
        assert np.all(np.diff(z[2:].imag) > 0.0)

    @pytest.mark.parametrize("cutoff", [20.0, 40.0, 80.0, 160.0])
    @pytest.mark.parametrize("theta", [0.05, 0.14])
    def test_bws_grid_is_its_quadrature_on_the_line(self, cutoff, theta, bws, monkeypatch):
        # the grid's nodes after 0 and theta1 are c + i t for the
        # Gauss-Legendre nodes t of panels graded from c up to 1, then of
        # uniform panels up to NU_CUTOFF, in the order of the weights
        monkeypatch.setattr(scan_module, "NU_CUTOFF", cutoff)
        grid, w = scan_module._nu_quadrature(bws, theta)
        c = 0.5 * theta
        width = scan_module.NU_PANEL_WIDTH / (2.0 if theta < scan_module.NU_FINE_TILT else 1.0)
        graded = [0.0] + [c * 2.0 ** k for k in range(8) if c * 2.0 ** k < 1.0]
        edges = np.array(graded + list(np.linspace(1.0, cutoff, round((cutoff - 1.0) / width) + 1)))
        x, g = np.polynomial.legendre.leggauss(scan_module.NU_PANEL_NODES)
        half = 0.5 * np.diff(edges)[:, None]
        t = (edges[:-1, None] + half * (x + 1.0)).ravel()
        g = (half * g).ravel()
        far = np.where(t >= 1.0, 2.0 / np.pi * np.arctan(c / cutoff) / (cutoff - 1.0), 0.0)
        expected_w = g * (2.0 * c / np.pi / (c * c + t * t) + far)
        z = grid.nodes[2:]
        assert grid.offsets.size == scan_module.NU_PANEL_NODES and z.size == w.size == t.size
        assert np.all(z.real == c)
        assert np.all(np.abs(z.imag - t) <= 4.0 * np.finfo(float).eps * t)
        assert np.allclose(w, expected_w, rtol=1e-14, atol=0.0)


class TestThresholdForAlpha:
    def test_inversion_exact_with_fixed_nu(self, lam0):
        for kind, alpha in (("pcs", 0.05), ("pls", 0.05), ("pls", 0.01), ("bws", 0.05)):
            sm = ScoreModel(kind, bohv1_model(), 6)
            b = threshold_for_alpha(alpha, WINDOW, W, lam0, sm, nu_fixed=1.0)
            rep = p_value(b, WINDOW, W, lam0, sm, nu_fixed=1.0)
            assert rep.p == pytest.approx(alpha, rel=1e-6)

    @pytest.mark.parametrize("nu_fixed", [None, 1.0, 0.6])
    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_relative_accuracy_down_to_small_alpha(self, kind, nu_fixed, lam0, monkeypatch):
        # A genome-wide scan with a multiple-testing correction needs alpha
        # far below 1e-6, where an absolute tolerance on p means nothing.
        # The searches solve no tilt.
        solved = []
        monkeypatch.setattr(scan_module, "solve_tilt",
                            lambda *a, **k: solved.append(a) or solve_tilt(*a, **k))
        sm = ScoreModel(kind, bohv1_model(), 6)
        ratios = {}
        for alpha in (0.2, 0.05, 1e-3, 1e-5, 1e-6, 1e-7, 1e-9, 1e-12):
            solved.clear()
            b = threshold_for_alpha(alpha, WINDOW, W, lam0, sm, nu_fixed=nu_fixed)
            assert not solved
            ratios[alpha] = p_value(b, WINDOW, W, lam0, sm, nu_fixed=nu_fixed).p / alpha
        assert all(abs(r - 1.0) <= scan_module.ALPHA_RTOL for r in ratios.values()), ratios

    def test_monte_carlo_variant_lands_near_alpha(self, lam0, pls):
        # the p-value at the returned threshold, with nu from the Monte Carlo
        # oracle instead, lands near alpha as well
        b = threshold_for_alpha(0.05, WINDOW, W, lam0, pls)
        tilt = solve_tilt(lam0, pls, b, WINDOW)
        nu, se = overshoot_nu(tilt, pls, np.random.default_rng(999))
        rep = p_value(b, WINDOW, W, lam0, pls, nu_fixed=nu)
        assert 0.045 < rep.p < 0.055

    def test_deterministic_given_entropy(self, lam0, pls):
        # nu is deterministic: the entropy that threshold_for_alpha still
        # accepts does not change the threshold
        b = threshold_for_alpha(0.05, WINDOW, W, lam0, pls)
        for entropy in (11, 12):
            assert threshold_for_alpha(0.05, WINDOW, W, lam0, pls, nu_entropy=entropy) == b

    # cumulants calls per threshold search, measured: {kind: {alpha: (with
    # analytic_nu, with nu fixed)}}
    CUMULANTS_PER_SEARCH = {
        "pls": {0.05: (10, 5), 0.01: (10, 5), 0.001: (10, 5), 1e-6: (11, 6),
                1e-12: (11, 6)},
        "bws": {0.05: (9, 4), 0.01: (10, 5), 0.001: (10, 5), 1e-6: (10, 5),
                1e-12: (11, 6)},
    }

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    @pytest.mark.parametrize("alpha", [0.05, 0.01, 0.001, 1e-6, 1e-12])
    def test_few_p_values_per_threshold(self, kind, alpha, lam0, monkeypatch):
        # A handful of p-values per threshold with nu fixed, 3 analytic_nu
        # without (4 allowed below 1e-3), one cumulants call per trial and
        # no tilt solve, and the search ends with |p / alpha - 1| <= 1e-7.
        sm = ScoreModel(kind, bohv1_model(), 6)
        calls = {"p": 0, "nu": 0, "cumulants": 0, "solve": 0}

        def counted(name, f):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(scan_module, "_tail", counted("p", scan_module._tail))
        monkeypatch.setattr(scan_module, "analytic_nu", counted("nu", analytic_nu))
        monkeypatch.setattr(scan_module, "cumulants", counted("cumulants", cumulants))
        monkeypatch.setattr(scan_module, "solve_tilt", counted("solve", solve_tilt))
        expected = self.CUMULANTS_PER_SEARCH[kind][alpha]
        b_fixed = threshold_for_alpha(alpha, WINDOW, W, lam0, sm, nu_fixed=1.0)
        assert calls["nu"] == 0
        assert 1 <= calls["p"] <= 8
        assert calls["cumulants"] == expected[1] <= 7
        calls.update(nu=0, cumulants=0)
        b = threshold_for_alpha(alpha, WINDOW, W, lam0, sm)
        assert 1 <= calls["nu"] <= (3 if alpha >= 1e-3 else 4)
        assert calls["cumulants"] == expected[0] <= 13
        assert calls["solve"] == 0
        assert b < b_fixed
        assert abs(p_value(b, WINDOW, W, lam0, sm).p / alpha - 1.0) <= 1e-7

    @pytest.mark.parametrize("kind, window, total", [
        ("pls", 50, 100), ("bws", 20, 40), ("bws", 50, 100)])
    def test_root_on_decaying_branch(self, kind, window, total, lam0):
        # Few windows and a large alpha put the root close to the peak of p,
        # past which a search step would land on the artifact branch.
        sm = ScoreModel(kind, bohv1_model(), 6)
        b = threshold_for_alpha(0.2, window, total, lam0, sm)
        p = p_value(b, window, total, lam0, sm).p
        assert abs(p - 0.2) <= 1e-6
        null_mean = window * lam0 * sm.null_cumulants[1]
        assert p_value(b + 1e-5 * (b - null_mean), window, total, lam0, sm).p < p

    def test_smaller_alpha_larger_threshold(self, lam0, pls):
        b5 = threshold_for_alpha(0.05, WINDOW, W, lam0, pls, nu_fixed=1.0)
        b1 = threshold_for_alpha(0.01, WINDOW, W, lam0, pls, nu_fixed=1.0)
        assert b1 > b5

    @pytest.mark.parametrize("lambda0", [np.nan, np.inf, 0.0, -1e-3])
    @pytest.mark.parametrize("nu_fixed", [None, 1.0])
    def test_bad_rate_rejected_before_the_kernel(self, lambda0, nu_fixed, monkeypatch):
        sm = fresh_model_without_kernel(monkeypatch)
        with pytest.raises(ValueError, match="lambda0"):
            threshold_for_alpha(0.05, WINDOW, W, lambda0, sm, nu_fixed=nu_fixed)

    def test_unattainable_alpha(self, lam0, pls):
        # with only 200 windows the exceedance probability peaks well below
        # 0.9, so no threshold can attain that alpha
        with pytest.raises(DomainError, match="alpha"):
            threshold_for_alpha(0.9, WINDOW, 1200, lam0, pls, nu_fixed=1.0)

    @pytest.mark.parametrize("kind,total,alpha,nu_fixed", [
        ("pcs", 135_301, 0.05, None), ("pls", 20_000, 1e-3, None),
        ("pls", 135_301, 1e-9, 1.0), ("bws", 135_301, 0.05, None),
        ("bws", 10**7, 1e-6, 1.0),
    ])
    def test_closed_bracket_is_a_convergence_failure(self, kind, total, alpha, nu_fixed,
                                                     lam0, monkeypatch):
        # With the |h| stop switched off every search runs until its
        # bracket closes about the sign change of h. alpha is attained there
        # (the real stop returns a threshold), so the failure is one of
        # convergence, never "not attainable".
        sm = ScoreModel(kind, bohv1_model(), 6)
        threshold_for_alpha(alpha, WINDOW, total, lam0, sm, nu_fixed=nu_fixed)
        monkeypatch.setattr(scan_module, "ALPHA_RTOL", 0.0)
        with pytest.raises(ConvergenceError, match="closed its bracket"):
            threshold_for_alpha(alpha, WINDOW, total, lam0, sm, nu_fixed=nu_fixed)

    # float.hex of the thresholds on BoHV-1 at w = 1000, W = 135,301:
    # {kind: {(alpha, nu_fixed): threshold}}
    PINNED = {
        "pcs": {(0.2, None): "0x1.a1aeba353b547p+2", (0.2, 0.6): "0x1.8e0217a6ee95dp+2",
                (0.05, None): "0x1.d76c48ae1fda7p+2", (0.05, 0.6): "0x1.c5537cc98a5fcp+2",
                (1e-6, None): "0x1.8ea87619ca737p+3", (1e-6, 0.6): "0x1.87dbce1347949p+3",
                (1e-12, None): "0x1.1cd62133f3992p+4", (1e-12, 0.6): "0x1.19ead4ed5d561p+4"},
        "pls": {(0.2, None): "0x1.0730387a65e9dp+3", (0.2, 0.6): "0x1.fd7b030ee9551p+2",
                (0.05, None): "0x1.22627681b3c60p+3", (0.05, 0.6): "0x1.1a7d1d8c72f9ap+3",
                (1e-6, None): "0x1.cf6d172a96f37p+3", (1e-6, 0.6): "0x1.c974466facceep+3",
                (1e-12, None): "0x1.4589d11a28782p+4", (1e-12, 0.6): "0x1.43090ed36f2d0p+4"},
        "bws": {(0.2, None): "0x1.95041a31abf3dp+6", (0.2, 0.6): "0x1.9c75bab9f4616p+6",
                (0.05, None): "0x1.c3645a9c9efe1p+6", (0.05, 0.6): "0x1.cb8d1231166a6p+6",
                (1e-6, None): "0x1.745773906e2ecp+7", (1e-6, 0.6): "0x1.799a0d81416eap+7",
                (1e-12, None): "0x1.098221a919d30p+8", (1e-12, 0.6): "0x1.0c68938be3a09p+8"},
    }

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_thresholds_pinned_to_the_bit(self, kind, lam0, bohv1):
        sm = ScoreModel(kind, bohv1, 6)
        got = {(alpha, nu_fixed): threshold_for_alpha(alpha, WINDOW, W, lam0, sm,
                                                      nu_fixed=nu_fixed).hex()
               for alpha, nu_fixed in self.PINNED[kind]}
        assert got == self.PINNED[kind]

    @pytest.mark.parametrize("kind, nu_fixed, trials", [
        ("pcs", 0.6, 5), ("pls", 0.6, 4), ("bws", 0.6, 5), ("bws", None, 9)])
    def test_one_cap_on_all_trials(self, kind, nu_fixed, trials, lam0, bohv1, monkeypatch):
        # ROOT_MAX_ITER caps the trials of a whole search: with nu computed
        # the 9 bws trials span two analytic_nu restarts (4 + 3 + 2)
        sm = ScoreModel(kind, bohv1, 6)
        b = threshold_for_alpha(0.05, WINDOW, W, lam0, sm, nu_fixed=nu_fixed)
        monkeypatch.setattr(scan_module, "ROOT_MAX_ITER", trials)
        assert threshold_for_alpha(0.05, WINDOW, W, lam0, sm, nu_fixed=nu_fixed) == b
        monkeypatch.setattr(scan_module, "ROOT_MAX_ITER", trials - 1)
        with pytest.raises(ConvergenceError, match=f"did not converge in {trials - 1} p-values"):
            threshold_for_alpha(0.05, WINDOW, W, lam0, sm, nu_fixed=nu_fixed)

    @pytest.mark.parametrize("kind, cap", [("pcs", 7), ("pls", 8), ("pls", 9)])
    def test_running_out_after_a_restart_is_not_unattainable(self, kind, cap, lam0,
                                                              bohv1, monkeypatch):
        # every trial since the last analytic_nu restart had h > 0, but h > 0
        # at an analytic_nu already showed alpha attained: the search ran out
        sm = ScoreModel(kind, bohv1, 6)
        monkeypatch.setattr(scan_module, "ROOT_MAX_ITER", cap)
        with pytest.raises(ConvergenceError, match=f"did not converge in {cap} p-values"):
            threshold_for_alpha(0.05, WINDOW, W, lam0, sm)
        monkeypatch.setattr(scan_module, "ROOT_MAX_ITER", 10)
        threshold_for_alpha(0.05, WINDOW, W, lam0, sm)


class TestLiteralReading:
    """The paper's literal reading of the p-value, kept as a test oracle
    (oracles.literal_threshold): bws start weights from the column form
    (I - T) pi, the tilt centred without the window factor, and the mean
    ladder increment b - lambda0 * mean score."""

    # The package's thresholds under this reading (ScoreModel(...,
    # compat_paper=True), before the switch was removed) at alpha = 0.05,
    # w = 1000, W = 135,301, BoHV-1, lambda0 = markov_rate and nu = 1.
    RECORDED = {"pls": 95398.56938044372, "bws": 1373499.2983228709}

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    def test_thresholds_for_the_record(self, kind, lam0, bohv1):
        pi, trans = bohv1.pi, bohv1.trans
        if kind == "pls":
            start = None
            t_max = -6.0 * np.log(np.abs(np.linalg.eigvals(quasi_matrix(trans))).max())
        else:
            start, t_max = column_start_weights(pi, trans), bws_domain_edge(trans)
        mgf = lambda z: matrix_form_mgf(pi, trans, 6, z, kind, bws_start=start)
        b = literal_threshold(0.05, WINDOW, W, lam0, mgf, t_max)
        assert b == pytest.approx(self.RECORDED[kind], rel=1e-6)
        # thousands of times the default reading's threshold: no window
        # reaches it, so every power under this reading is 0
        sm = ScoreModel(kind, bohv1, 6)
        assert b > 1000.0 * threshold_for_alpha(0.05, WINDOW, W, lam0, sm, nu_fixed=1.0)


class TestCallHistory:
    """A threshold search keeps its state to itself: no result may depend
    on the calls made before it."""

    CONFIGS = [(kind, alpha, nu_fixed) for kind in ("pls", "bws")
               for alpha in (0.05, 1e-3, 1e-9) for nu_fixed in (None, 1.0, 0.6)]

    def test_thresholds_bitwise_equal_whatever_came_before(self, lam0, bohv1):
        def threshold(sm, alpha, nu_fixed):
            return threshold_for_alpha(alpha, WINDOW, W, lam0, sm, nu_fixed=nu_fixed)

        fresh = {c: threshold(ScoreModel(c[0], bohv1, 6), *c[1:]) for c in self.CONFIGS}
        shared = {kind: ScoreModel(kind, bohv1, 6) for kind in ("pls", "bws")}
        order = self.CONFIGS[::-1] + self.CONFIGS[::2] + self.CONFIGS  # interleaved, repeated
        for c in order:
            assert threshold(shared[c[0]], *c[1:]) == fresh[c], c

    def test_domain_error_leaves_no_trace(self, lam0, bohv1):
        # a pls threshold above the one at the top of the tilt interval
        # (sm.tilt_top) lies beyond the MGF domain edge
        sm = ScoreModel("pls", bohv1, 6)
        cold = threshold_for_alpha(1e-3, WINDOW, W, lam0, ScoreModel("pls", bohv1, 6))
        b = 2.0 * scan_module._tilt_at(lam0, sm, sm.tilt_top, WINDOW).threshold
        with pytest.raises(DomainError):
            solve_tilt(lam0, sm, b, WINDOW)
        with pytest.raises(DomainError):
            p_value(b, WINDOW, W, lam0, sm)
        assert threshold_for_alpha(1e-3, WINDOW, W, lam0, sm) == cold


class TestNuFixedValidation:
    @pytest.mark.parametrize("nu_fixed", [np.nan, 0.0, -1.0, 1.5, np.inf])
    def test_rejected_before_any_tilt(self, nu_fixed, lam0, pls, monkeypatch):
        evaluated = []
        monkeypatch.setattr(scan_module, "cumulants",
                            lambda *args: evaluated.append(args))
        with pytest.raises(ValueError, match="nu_fixed"):
            p_value(10.0, WINDOW, W, lam0, pls, nu_fixed=nu_fixed)
        with pytest.raises(ValueError, match="nu_fixed"):
            threshold_for_alpha(0.05, WINDOW, W, lam0, pls, nu_fixed=nu_fixed)
        assert evaluated == []


class TestKernelTraffic:
    """The MGF kernel takes the block products for a scalar (_mgf_jet) and
    node-vector arithmetic for a 1-D array (_mgf_value), which is slower than
    the block products for a handful of arguments. So every caller the
    pipeline runs passes _mgf_jet a scalar and _mgf_value a stack of at
    least MIN_NODES arguments; both entry points are recorded."""

    MIN_NODES = 64

    @pytest.fixture
    def shapes(self, monkeypatch):
        # analytic_nu holds the kernel under its own name, and a NodeGrid
        # has the shape of its nodes
        shapes = []
        jet, value = mgf_module._mgf_jet, mgf_module._mgf_value
        monkeypatch.setattr(mgf_module, "_mgf_jet", lambda sm, z, order=0: (
            shapes.append(("jet", np.shape(z))) or jet(sm, z, order)))
        for module in (mgf_module, scan_module):
            monkeypatch.setattr(module, "_mgf_value", lambda sm, z: (
                shapes.append(("value", np.shape(getattr(z, "nodes", z)))) or value(sm, z)))
        return shapes

    def check(self, shapes):
        assert shapes
        wrong = [(entry, s) for entry, s in shapes if not (
            s == () if entry == "jet" else len(s) == 1 and s[0] >= self.MIN_NODES)]
        assert wrong == []

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_score_mgf(self, kind, bohv1, shapes):
        score_mgf(ScoreModel(kind, bohv1, 6), 0.1)
        assert [entry for entry, _ in shapes] == ["jet"]
        self.check(shapes)

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_cli_scan(self, kind, data_dir, shapes):
        code, _ = invoke("scan", "--input", str(data_dir / "sample.fa"), "--score", kind)
        assert code == 0
        self.check(shapes)

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    @pytest.mark.parametrize("alpha", [0.05, 1e-3])
    @pytest.mark.parametrize("nu_fixed", [None, 1.0])
    def test_threshold_for_alpha(self, kind, alpha, nu_fixed, lam0, bohv1, shapes):
        threshold_for_alpha(alpha, WINDOW, W, lam0, ScoreModel(kind, bohv1, 6),
                            nu_fixed=nu_fixed)
        self.check(shapes)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_analytic_nu_about_the_fine_panel_tilt(self, scale, lam0, bohv1, shapes):
        sm = ScoreModel("bws", bohv1, 6)
        analytic_nu(tilt_at(sm, scale * scan_module.NU_FINE_TILT, lam0), sm)
        self.check(shapes)


class TestWindowSeries:
    def test_holds_its_arrays_and_two_methods(self):
        assert [f.name for f in fields(WindowSeries)] == [
            "window", "total_length", "positions", "cumulative"]
        assert [n for n in vars(WindowSeries) if not n.startswith("_")] == ["sums", "peak"]

    def test_length_validation(self):
        with pytest.raises(ValueError):
            WindowSeries(window=10, total_length=50, positions=np.array([3, 7]),
                         cumulative=np.zeros(2))

    def test_positions_must_be_whole_numbers(self):
        with pytest.raises(ValueError, match="whole numbers"):
            window_scores([1.7, 3.2], [1.0, 1.0], 2, 10)
        for bad in ([np.nan, 3.0], [1.0, np.inf]):
            with pytest.raises(ValueError, match="whole numbers"):
                window_scores(bad, [1.0, 1.0], 2, 10)
        # integral floats are the same positions as integers
        series = window_scores([1.0, 3.0], [1.0, 2.0], 2, 10)
        assert series.positions.dtype == np.int64
        assert series.positions.tolist() == [1, 3]
        assert series.sums([0, 1, 2]).tolist() == [1.0, 2.0, 2.0]

    def test_order_validation(self):
        with pytest.raises(ValueError):  # positions out of order
            WindowSeries(window=10, total_length=50, positions=np.array([7, 3]),
                         cumulative=np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):  # a negative score
            WindowSeries(window=10, total_length=50, positions=np.array([3, 7]),
                         cumulative=np.array([0.0, 1.0, 0.5]))
