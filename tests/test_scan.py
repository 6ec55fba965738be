from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palinscan import (
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
    dense_window_sums,
    iid_match_gamma,
    ladder_nu_series,
    overshoot_nu,
    poisson_compound_pmf,
    window_sums,
)

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
        assert np.allclose(series.values, window_sums(events, window, total))

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
        assert series.argmax == int(np.argmax(dense))
        assert series.max_value == dense.max()
        # segment maxima, as power_experiment takes them
        lo = data.draw(st.integers(0, total - window))
        hi = data.draw(st.integers(lo, total - window))
        segment = dense[lo : hi + 1]
        assert series.peak(lo, hi) == (lo + int(np.argmax(segment)), segment.max())
        assert np.array_equal(series.values, dense)

    def test_unsorted_input(self):
        # positions are a table's centres, so they must strictly increase
        for positions in ([30, 11, 10], [10, 11, 11]):
            with pytest.raises(ValueError, match="increase"):
                window_scores(np.array(positions), [0.5, 2.0, 1.0], 5, 50)

    def test_window_covers_positions_after_t(self):
        # window at t covers centres t+1 .. t+window
        series = series_of([(5, 2.0)], 5, 20)
        expected_ts = [t for t in range(16) if t + 1 <= 5 <= t + 5]
        got = np.flatnonzero(series.values > 0).tolist()
        assert got == expected_ts

    def test_empty_events(self):
        series = series_of([], 10, 50)
        assert series.values.shape == (41,)
        assert series.max_value == 0.0

    def test_argmax_and_max(self):
        series = series_of([(10, 1.0), (11, 2.0), (30, 0.5)], 5, 50)
        assert series.max_value == 3.0
        assert series.values[series.argmax] == 3.0

    def test_total_equals_window(self):
        series = series_of([(3, 1.5)], 10, 10)
        assert series.values.shape == (1,)
        assert series.values[0] == 1.5

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

    def test_values_built_only_on_demand(self):
        series = series_of([(5, 1.0), (9_999_999, 2.0)], 1000, 10_000_000)
        assert (series.argmax, series.max_value) == (9_998_999, 2.0)
        assert series.peak(0, 5000) == (0, 1.0)
        assert "values" not in vars(series)

    def test_series_is_frozen(self):
        series = series_of([(3, 1.0)], 5, 20)
        with pytest.raises(ValueError):
            series.values[0] = 9.9


class TestSolveTilt:
    def test_pcs_closed_form(self, lam0, pcs):
        for b in (2.0, 5.0, 11.0):
            tilt = solve_tilt(lam0, pcs, b, WINDOW)
            assert tilt.lambda1 == pytest.approx(b / WINDOW, rel=1e-12)
            assert tilt.theta1 == pytest.approx(np.log(b / (WINDOW * lam0)), rel=1e-10)

    @pytest.mark.parametrize("compat", [False, True])
    def test_pcs_tilt_is_exactly_the_log_ratio(self, lam0, compat):
        # phi(theta) = theta and phi' = 1 make the tilt equation theta =
        # log(b / null window mean), which solve_tilt returns bit for bit
        sm = ScoreModel("pcs", bohv1_model(), 6, compat_paper=compat)
        null_mean = scan_module.null_window_mean(lam0, sm, WINDOW)
        for b in null_mean * np.geomspace(1.001, 1e4, 50):
            tilt = solve_tilt(lam0, sm, b, WINDOW)
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

    def test_literal_condition_variant(self, lam0):
        # compat_paper centres on lambda1 * phi'(theta1) = b, without the window
        sm = ScoreModel("pls", bohv1_model(), 6, compat_paper=True)
        b = 10.0
        tilt = solve_tilt(lam0, sm, b, WINDOW)
        lhs = tilt.lambda1 * cumulants(sm, tilt.theta1)[1]
        assert lhs == pytest.approx(b, rel=1e-8)

    def test_threshold_at_null_mean_gives_zero_tilt(self, lam0, pls):
        null_mean = WINDOW * lam0 * pls.null_cumulants[1]
        tilt = solve_tilt(lam0, pls, null_mean, WINDOW)
        assert tilt.theta1 == 0.0
        assert tilt.lambda1 == lam0
        assert tilt.cumulants == pls.null_cumulants

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

    def test_ey1_literal_variant(self, lam0):
        # compat_paper, recomputed for counts (phi' = 1): the literal centring
        # lambda1 * phi'(theta1) = b gives lambda1 = b and theta1 = log(b /
        # lambda0), and the mean increment is b - lambda0 * mu0. A short
        # window keeps p inside (0, 1); at w = 1000 it clamps to 1.
        sm = ScoreModel("pcs", bohv1_model(), 6, compat_paper=True)
        b, window = 4.0, 5
        rep = p_value(b, window, W, lam0, sm, nu_fixed=1.0)
        theta1 = np.log(b / lam0)
        assert rep.tilt.lambda1 == pytest.approx(b, rel=1e-12)
        assert rep.tilt.theta1 == pytest.approx(theta1, rel=1e-12)
        exponent = b * theta1 - window * (b - lam0)
        local = 1.0 / np.sqrt(2.0 * np.pi * window * b)
        hits = (W - window) * (b - lam0) * np.exp(-exponent) * local
        assert 0.01 < rep.p < 0.99
        assert rep.p == pytest.approx(-np.expm1(-hits), rel=1e-9)

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
        assert rep.window == WINDOW
        assert rep.total_length == W
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


def with_cumulants(tilt, jet):
    """tilt with its cumulants field set, as solve_tilt sets it."""
    object.__setattr__(tilt, "cumulants", jet)
    return tilt


def tilt_at(sm, theta, lam0=0.05):
    """The rate-matched tilt solution at a given tilt, per base."""
    jet = cumulants(sm, theta)
    lam1 = lam0 * score_mgf(sm, theta)
    return with_cumulants(TiltSolution(lambda0=lam0, lambda1=lam1, theta1=theta,
                                       threshold=WINDOW * lam1 * jet[1],
                                       window=WINDOW), jet)


def per_stretch(tilt, delta):
    """The tilt solution of a walk that steps once per delta bases: both
    rates scaled by delta, theta1 and its cumulants kept."""
    return with_cumulants(replace(tilt, lambda0=tilt.lambda0 * delta,
                                  lambda1=tilt.lambda1 * delta), tilt.cumulants)


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
        cases = []
        for iid, delta in self.MODES:
            sm = ScoreModel(kind, iid_model(bohv1.pi) if iid else bohv1, 6)
            for theta in (0.01, 0.05, 0.2) + ((0.8, 2.0) if kind != "bws" else ()):
                for rate in (lam0, 0.05):
                    tilt = per_stretch(tilt_at(sm, theta, rate), delta)
                    cases.append((tilt, sm, analytic_nu(tilt, sm)))
        monkeypatch.setattr(scan_module, "NU_PANEL_NODES", 2 * scan_module.NU_PANEL_NODES)
        for tilt, sm, nu in cases:
            assert abs(analytic_nu(tilt, sm) - nu) < 1e-8

    # the bws thresholds of the benchmark: alpha = 0.05, 0.01, 0.001 at
    # w = 1000, W = 135,301
    BENCHMARK_BWS = (112.8480032836862, 125.03101154129564, 141.3745951092381)

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

    def test_bws_nu_is_one_array_evaluation(self, lam0, bws, monkeypatch):
        # all quadrature nodes go through the MGF kernel in one call, as
        # array arithmetic: no per-matrix LAPACK inverse, determinant or
        # matrix power (the model's own caches are filled beforehand)
        tilt = solve_tilt(lam0, bws, self.BENCHMARK_BWS[1], WINDOW)
        kernel_sizes, linalg_calls = [], []
        kernel = mgf_module._mgf_jet
        monkeypatch.setattr(mgf_module, "_mgf_jet", lambda sm, z, order=0: (
            kernel_sizes.append(np.size(z)) or kernel(sm, z, order)))
        for name in ("inv", "det", "matrix_power"):
            monkeypatch.setattr(np.linalg, name, lambda *a, f=getattr(np.linalg, name),
                                name=name, **k: linalg_calls.append(name) or f(*a, **k))
        analytic_nu(tilt, bws)
        assert len(kernel_sizes) == 1
        assert kernel_sizes[0] >= mgf_module.STACK_MIN_NODES
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
        with pytest.raises(ValueError):
            analytic_nu(solve_tilt(lam0, pls, WINDOW * lam0 * pls.null_cumulants[1],
                                   WINDOW), pls)


class TestThresholdForAlpha:
    def test_inversion_exact_with_fixed_nu(self, lam0):
        for kind, alpha in (("pcs", 0.05), ("pls", 0.05), ("pls", 0.01), ("bws", 0.05)):
            sm = ScoreModel(kind, bohv1_model(), 6)
            b = threshold_for_alpha(alpha, WINDOW, W, lam0, sm, nu_fixed=1.0)
            rep = p_value(b, WINDOW, W, lam0, sm, nu_fixed=1.0)
            assert rep.p == pytest.approx(alpha, rel=1e-6)

    @pytest.mark.parametrize("nu_fixed", [None, 1.0])
    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_relative_accuracy_down_to_small_alpha(self, kind, nu_fixed, lam0):
        # A genome-wide scan with a multiple-testing correction needs alpha
        # far below 1e-6, where an absolute tolerance on p means nothing.
        sm = ScoreModel(kind, bohv1_model(), 6)
        ratios = {}
        for alpha in (0.2, 0.05, 1e-3, 1e-5, 1e-6, 1e-7, 1e-9, 1e-12):
            b = threshold_for_alpha(alpha, WINDOW, W, lam0, sm, nu_fixed=nu_fixed)
            ratios[alpha] = p_value(b, WINDOW, W, lam0, sm, nu_fixed=nu_fixed).p / alpha
        assert all(abs(r - 1.0) <= 1e-6 for r in ratios.values()), ratios

    def test_monte_carlo_variant_lands_near_alpha(self, lam0, pls):
        # the p-value at the returned threshold, with nu from the Monte Carlo
        # oracle instead, lands near alpha as well
        b = threshold_for_alpha(0.05, WINDOW, W, lam0, pls)
        tilt = solve_tilt(lam0, pls, b, WINDOW)
        nu, se = overshoot_nu(tilt, pls, np.random.default_rng(999))
        rep = p_value(b, WINDOW, W, lam0, pls, nu_fixed=nu)
        assert 0.045 < rep.p < 0.055

    def test_deterministic_given_entropy(self, lam0, pls):
        # nu is deterministic: neither the entropy nor the generator that
        # threshold_for_alpha still accepts changes the threshold
        b = threshold_for_alpha(0.05, WINDOW, W, lam0, pls)
        for kw in (dict(nu_entropy=11), dict(nu_entropy=12),
                   dict(rng=np.random.default_rng(3))):
            assert threshold_for_alpha(0.05, WINDOW, W, lam0, pls, **kw) == b

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    @pytest.mark.parametrize("alpha", [0.05, 0.01, 0.001])
    def test_few_p_values_per_threshold(self, kind, alpha, lam0, monkeypatch):
        # A handful of p-values per threshold with nu fixed, a handful of nu
        # evaluations without, and the search ends with |p / alpha - 1| <= 1e-6.
        sm = ScoreModel(kind, bohv1_model(), 6)
        p_calls, nu_calls = [], []

        def counted(count, f):
            def wrapped(*args, **kwargs):
                count.append(args[0])
                return f(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(scan_module, "p_value", counted(p_calls, p_value))
        monkeypatch.setattr(scan_module, "analytic_nu", counted(nu_calls, analytic_nu))
        b_fixed = threshold_for_alpha(alpha, WINDOW, W, lam0, sm, nu_fixed=1.0)
        assert not nu_calls
        assert 1 <= len(p_calls) <= 8
        b = threshold_for_alpha(alpha, WINDOW, W, lam0, sm)
        assert 1 <= len(nu_calls) <= 8
        assert b < b_fixed
        assert abs(p_value(b, WINDOW, W, lam0, sm).p / alpha - 1.0) <= 1e-6

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

    def test_unattainable_alpha(self, lam0, pls):
        # with only 200 windows the exceedance probability peaks well below
        # 0.9, so no threshold can attain that alpha
        with pytest.raises(DomainError, match="alpha"):
            threshold_for_alpha(0.9, WINDOW, 1200, lam0, pls, nu_fixed=1.0)

    @pytest.mark.parametrize("window,total", [(50, 100), (100, 10**7)])
    def test_compat_pcs_jump_raises(self, window, total, lam0):
        # under compat_paper the pcs p falls from 1 straight to 0 (at about
        # 5.7e18 and 2.9e40 here), so no threshold has p near alpha
        sm = ScoreModel("pcs", bohv1_model(), 6, compat_paper=True)
        with pytest.raises(DomainError, match="jumps"):
            threshold_for_alpha(0.05, window, total, lam0, sm)

    @pytest.mark.parametrize("total,alpha,nu_fixed", [
        (135_301, 1e-3, None), (20_000, 1e-6, 1.0), (10**7, 1e-9, None),
    ])
    def test_compat_bws_bracket_stop_returns_threshold(self, total, alpha, nu_fixed,
                                                       lam0, monkeypatch):
        # Under compat_paper bws thresholds are about 1.4e6, where h falls so
        # steeply that p moves by about 1e-7 between adjacent thresholds.
        # With the |h| stop switched off every search ends on its bracket,
        # and the bracket end nearer alpha is still a threshold.
        monkeypatch.setattr(scan_module, "ALPHA_RTOL", 0.0)
        sm = ScoreModel("bws", bohv1_model(), 6, compat_paper=True)
        b = threshold_for_alpha(alpha, WINDOW, total, lam0, sm, nu_fixed=nu_fixed)
        ratio = p_value(b, WINDOW, total, lam0, sm, nu_fixed=nu_fixed).p / alpha
        assert abs(ratio - 1.0) <= scan_module.BRACKET_RTOL


class TestWindowSeries:
    def test_argmax_computed_once(self, monkeypatch):
        series = series_of([(10, 1.0), (11, 2.0), (30, 0.5)], 5, 50)
        calls = []
        argmax = np.argmax
        monkeypatch.setattr(np, "argmax", lambda *a: calls.append(a) or argmax(*a))
        assert (series.argmax, series.max_value, series.max_value) == (6, 3.0, 3.0)
        assert len(calls) == 1

    def test_length_validation(self):
        with pytest.raises(ValueError):
            WindowSeries(window=10, total_length=50, positions=np.array([3, 7]),
                         cumulative=np.zeros(2))

    def test_order_validation(self):
        with pytest.raises(ValueError):  # positions out of order
            WindowSeries(window=10, total_length=50, positions=np.array([7, 3]),
                         cumulative=np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):  # a negative score
            WindowSeries(window=10, total_length=50, positions=np.array([3, 7]),
                         cumulative=np.array([0.0, 1.0, 0.5]))
