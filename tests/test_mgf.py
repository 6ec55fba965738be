import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from palinscan import (
    DomainError,
    MarkovModel,
    PalinscanError,
    ScoreModel,
    SingularMatrixError,
    bohv1_model,
    center_pair_probs,
    cumulants,
    iid_model,
    markov_rate,
    mgf_domain,
    quasi_transition_matrix,
    score_mgf,
)
import palinscan.mgf as mgf_module
from palinscan.scan import _nu_quadrature

from oracles import (
    bws_domain_edge,
    bws_powers,
    closure_vector,
    derivative,
    enum_exact_length_mgf,
    enum_exact_length_prob,
    iid_domain_edge,
    iid_geometric_mgf,
    matrix_form_factors,
    matrix_form_mgf,
    mgf_at_length,
    nilpotent_models,
    pls_series_jet,
    quasi_matrix,
    random_model,
    series_mgf,
    sparse_models,
    stationary,
)


def models_under_test(n_random=3):
    out = [
        ("bohv1", bohv1_model()),
        ("uniform", iid_model(np.full(4, 0.25))),
    ]
    rng = np.random.default_rng(555)
    for i in range(n_random):
        pi, trans = random_model(rng)
        out.append((f"random{i}", MarkovModel(pi=pi, trans=trans)))
    return out


MODELS = models_under_test()


def grid_in_domain(sm, n=10):
    t_max = min(sm.t_max, 5.0) if np.isinf(sm.t_max) else sm.t_max
    return np.linspace(0.05, 0.85, n) * t_max


class TestScoreModel:
    def test_validation(self, bohv1):
        with pytest.raises(ValueError, match="kind"):
            ScoreModel("xyz", bohv1, 6)
        with pytest.raises(ValueError):
            ScoreModel("pls", bohv1, 0)

    def test_kind_case_insensitive(self, bohv1):
        assert ScoreModel("PLS", bohv1, 6).kind == "pls"

    def test_subcritical_requirement(self):
        # deterministic A<->T transitions give a quasi matrix with radius 1
        trans = np.array([
            [0.0, 0.0, 0.0, 1.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],
            [1.0, 0.0, 0.0, 0.0],
        ])
        m = MarkovModel(pi=np.full(4, 0.25), trans=trans)
        with pytest.raises(ValueError, match="subcritical"):
            ScoreModel("pls", m, 6)

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_supercritical_chain_refusal_names_the_cause(self, kind):
        # the ACGT repeat's chain steps A -> C -> G -> T -> A for sure, and
        # its quasi matrix is a cycle of ones: every stretch is a palindrome
        trans = np.roll(np.eye(4), 1, axis=1)
        m = MarkovModel(pi=np.full(4, 0.25), trans=trans)
        with pytest.raises(DomainError, match="strictly subcritical") as info:
            ScoreModel(kind, m, 6)
        assert "spectral radius is 1:" in str(info.value)
        assert "every long stretch a palindrome" in str(info.value)

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_zero_rate_refused(self, kind):
        # pi puts every centre on A, which only ever steps to A: no centre
        # closes with its complement, so the rate is 0 and the MGFs would
        # divide by it
        trans = [[1.0, 0.0, 0.0, 0.0]] + [[0.25] * 4] * 3
        m = MarkovModel(pi=[1.0, 0.0, 0.0, 0.0], trans=trans)
        assert markov_rate(m, 6).value == 0.0
        with pytest.raises(DomainError, match="occurrence rate is 0"):
            ScoreModel(kind, m, 6)

    def test_nilpotent_t_gives_infinite_pls_domain_without_warning(self):
        # A -> C -> G -> T, T -> T: the quasi matrix has no cycle in its
        # support, so pls scores are bounded and t_max is infinite, while
        # centres still close at half-length 2
        trans = np.eye(4)[[1, 2, 3, 3]]
        m = MarkovModel(pi=np.full(4, 0.25), trans=trans)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sm = ScoreModel("pls", m, 2)
            assert sm.rate > 0.0
            assert sm.t_max == np.inf

    def test_cached_pieces_match_markov_module(self, bohv1):
        sm = ScoreModel("pls", bohv1, 6)
        assert np.allclose(sm.t_matrix, quasi_transition_matrix(bohv1))
        assert np.allclose(sm.closure_probs, center_pair_probs(bohv1))
        expected_start = bohv1.pi - bohv1.pi @ quasi_transition_matrix(bohv1)
        assert np.allclose(sm.start_weights, expected_start)
        assert sm.rate == pytest.approx(markov_rate(bohv1, 6).value, rel=1e-12)


class TestNormalisation:
    @pytest.mark.parametrize("name,model", MODELS)
    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_mgf_at_zero_is_one(self, name, model, kind):
        sm = ScoreModel(kind, model, 6)
        assert abs(score_mgf(sm, 0.0) - 1.0) < 1e-10

    def test_iid_mode_normalisation(self):
        # independent bases with an uneven composition, as iid_model(pi)
        model = iid_model([0.1, 0.2, 0.3, 0.4])
        for kind in ("pls", "bws"):
            sm = ScoreModel(kind, model, 6)
            assert abs(score_mgf(sm, 0.0) - 1.0) < 1e-12


class TestKernelAgainstSeriesOracle:
    @pytest.mark.parametrize("name,model", MODELS)
    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_matches_truncated_series(self, name, model, kind):
        sm = ScoreModel(kind, model, 6)
        for t in grid_in_domain(sm, n=10):
            oracle = series_mgf(model.pi, model.trans, 6, float(t), kind)
            assert score_mgf(sm, float(t)) == pytest.approx(oracle, rel=1e-8)

    def test_negative_arguments(self, bohv1):
        for kind in ("pls", "bws"):
            sm = ScoreModel(kind, bohv1, 6)
            for t in (-0.5, -2.0):
                oracle = series_mgf(bohv1.pi, bohv1.trans, 6, t, kind)
                assert score_mgf(sm, t) == pytest.approx(oracle, rel=1e-8)

    def test_pls_near_domain_edge(self, bohv1):
        # the series needs about 2,500 terms here, and e^(t k / h) alone
        # overflows from k = 620 on; the oracle folds it into its steps
        sm = ScoreModel("pls", bohv1, 6)
        t = 0.99 * sm.t_max
        oracle = series_mgf(bohv1.pi, bohv1.trans, 6, t, "pls")
        assert score_mgf(sm, t) == pytest.approx(oracle, rel=1e-8)

    def test_complex_arguments_match_series(self, bohv1):
        # the overshoot characteristic function evaluates the MGF off the
        # real axis; the truncated series is the reference there too
        z = complex(0.2, 0.7)
        for kind in ("pls", "bws"):
            sm = ScoreModel(kind, bohv1, 6)
            oracle = series_mgf(bohv1.pi, bohv1.trans, 6, z, kind)
            got = mgf_module._mgf_jet(sm, z)[0]
            assert got.real == pytest.approx(oracle.real, rel=1e-8)
            assert got.imag == pytest.approx(oracle.imag, rel=1e-8)

    def test_internal_series_agrees(self, bohv1):
        # the exact-length terms from k = h on sum to the closed form
        for kind in ("pcs", "pls", "bws"):
            sm = ScoreModel(kind, bohv1, 6)
            t = 0.3 if kind == "bws" else 1.0
            total = sum(mgf_at_length(sm, t, k) for k in range(6, 400))
            assert total / sm.rate == pytest.approx(score_mgf(sm, t), rel=1e-10)

    def test_pcs_closed_form(self, bohv1):
        sm = ScoreModel("pcs", bohv1, 6)
        for t in (0.0, 0.7, 2.5, -1.0):
            assert score_mgf(sm, t) == pytest.approx(np.exp(t), rel=1e-14)


class TestKernelAgainstMatrixOracle:
    """The kernel against its matrix form evaluated node by node with plain
    np.linalg.inv and matrix_power (oracles.matrix_form_mgf)."""

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    @pytest.mark.parametrize("iid", [False, True])
    def test_node_stack_and_real_points(self, kind, iid, bohv1):
        model = iid_model(bohv1.pi) if iid else bohv1
        sm = ScoreModel(kind, model, 6)
        oracle = lambda z: matrix_form_mgf(model.pi, model.trans, 6, z, kind)
        # the MGF arguments of analytic_nu at theta1 = 0.3 t_max, 0 and
        # theta1 in front
        z = _nu_quadrature(sm, 0.3 * sm.t_max)[0].nodes
        got = mgf_module._mgf_value(sm, z)
        expected = np.array([oracle(x) for x in z])
        assert np.all(np.abs(got / expected - 1.0) <= 1e-13)
        for x in (0.0, 0.3 * sm.t_max, 0.9 * sm.t_max, -0.5):
            assert score_mgf(sm, x) == pytest.approx(oracle(x).real, rel=1e-13)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(pi_trans=sparse_models(), kind=st.sampled_from(["pls", "bws"]))
    def test_nodes_on_sparse_chains_match_per_node_solve(self, pi_trans, kind):
        # zero transitions give reducible or periodic quasi matrices, on
        # which the node path eliminates without pivoting; LAPACK's pivoted
        # solve of y (I - Q) = v Q^n, node by node, for the kernel's own v,
        # Q, u and n (_mgf_jet) is the reference. Each node's error is taken
        # relative to the same form in the entrywise moduli |v|, |Q| and
        # |u|, which bounds every term of the series v Q^k u (k >= n); it is
        # M(Re z) where the terms are non-negative.
        pi, trans = pi_trans
        try:
            sm = ScoreModel(kind, MarkovModel(pi=pi, trans=trans), 6)
        except ValueError:  # T not subcritical, or a rate of 0
            assume(False)
        assume(sm.rate > 0.0 and np.isfinite(sm.t_max))
        x = 0.99 * sm.t_max * np.linspace(-1.0, 1.0, 9)
        z = np.concatenate([x + 1j * y for y in (0.0, 0.5, 3.0, 20.0)])
        if kind == "bws" and np.any(sm.start_weights < 0):  # pi not stationary
            with pytest.raises(PalinscanError):
                mgf_module._mgf_value(sm, z)
            return

        def solved(v, q, u, n):
            row = v @ np.linalg.matrix_power(q, n)
            return np.linalg.solve((np.eye(4) - q).T, row) @ u / sm.rate

        got = mgf_module._mgf_value(sm, z)
        t = quasi_matrix(trans)
        for node, value in zip(z, got):
            if kind == "pls":
                factors = (np.exp(node) * pi @ np.linalg.matrix_power(t, 5), np.exp(node / 6) * t,
                           (np.eye(4) - t) @ closure_vector(trans), 0)
            else:
                factors = matrix_form_factors(pi, trans, 6, node, kind) + (5,)
            expected = solved(*factors)
            scale = solved(*[np.abs(f) for f in factors])
            assert abs(value - expected) <= 1e-12 * scale
        # a node on the domain edge is refused with a typed error
        with pytest.raises(PalinscanError):
            mgf_module._mgf_value(sm, np.append(z, sm.t_max + 0.5j))


class TestExactLengthTerms:
    @pytest.mark.parametrize("name,model", MODELS[:3])
    def test_probability_vs_enumeration(self, name, model):
        sm = ScoreModel("pls", model, 2)
        for k in (1, 2, 3, 4):
            assert mgf_at_length(sm, 0.0, k) == pytest.approx(
                enum_exact_length_prob(model.pi, model.trans, k), abs=1e-14
            )

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    @pytest.mark.parametrize("t", [0.0, 0.2, -0.5])
    def test_term_vs_enumeration(self, kind, t, bohv1):
        sm = ScoreModel(kind, bohv1, 2)
        for k in (1, 2, 3, 4):
            oracle = enum_exact_length_mgf(bohv1.pi, bohv1.trans, 2, k, t, kind)
            assert mgf_at_length(sm, t, k) == pytest.approx(oracle, rel=1e-10)

    def test_uniform_hand_value(self, uniform):
        # v0 = 3/16 per letter, closure 1/4: sum over letters = 4*3/64
        sm = ScoreModel("bws", uniform, 1)
        assert mgf_at_length(sm, 0.0, 1) == pytest.approx(0.1875, abs=1e-14)

    def test_lengths_sum_to_rate(self, bohv1):
        sm = ScoreModel("pls", bohv1, 6)
        total = sum(mgf_at_length(sm, 0.0, k) for k in range(6, 200))
        assert total == pytest.approx(markov_rate(bohv1, 6).value, rel=1e-12)

    def test_k_validation(self, bohv1):
        sm = ScoreModel("pls", bohv1, 6)
        with pytest.raises(ValueError):
            mgf_at_length(sm, 0.1, 0)


class TestIidMode:
    """Independent bases take the matrix path as iid_model(pi); the
    geometric half-length law gives their MGFs and domains in closed form."""

    def test_matches_matrix_form_on_iid_models(self, rng):
        for _ in range(3):
            pi = rng.random(4) + 0.2
            pi /= pi.sum()
            model = iid_model(pi)
            for kind in ("pcs", "pls", "bws"):
                sm = ScoreModel(kind, model, 6)
                hi = 0.8 * min(sm.t_max, 5.0)
                for t in np.linspace(-1.0, 1.0, 7) * hi:
                    assert score_mgf(sm, float(t)) == pytest.approx(
                        iid_geometric_mgf(pi, 6, float(t), kind), rel=1e-10
                    )

    def test_iid_domains_match_matrix_domains(self, uniform, rng):
        pi = rng.random(4) + 0.2
        for model in (uniform, iid_model(pi / pi.sum())):
            for kind in ("pls", "bws"):
                got = ScoreModel(kind, model, 6).t_max
                assert got == pytest.approx(iid_domain_edge(model.pi, 6, kind), abs=1e-9)


class TestDomain:
    def test_pcs_domain_infinite(self, bohv1):
        assert np.isinf(mgf_domain(ScoreModel("pcs", bohv1, 6)))

    def test_pls_uniform_value(self, uniform):
        # quasi matrix is constant 1/16, radius 1/4; sup t = -6 ln(1/4)
        sm = ScoreModel("pls", uniform, 6)
        assert sm.t_max == pytest.approx(-6.0 * np.log(0.25), rel=1e-10)

    def test_bws_uniform_value(self, uniform):
        # tilted match probability 4 * 16^(t-1) hits 1 exactly at t = 1/2
        sm = ScoreModel("bws", uniform, 6)
        assert sm.t_max == pytest.approx(0.5, abs=1e-6)

    def test_bws_edge_matches_bisection_oracle(self, bohv1, uniform):
        for model in (bohv1, uniform):
            assert ScoreModel("bws", model, 6).t_max == pytest.approx(
                bws_domain_edge(model.trans), rel=1e-13)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(pi_trans=sparse_models())
    def test_bws_edge_on_sparse_chains(self, pi_trans):
        # zero transitions give reducible or periodic quasi matrices, whose
        # eigenvalue of largest modulus need not be the Perron root, and on
        # which eigvals resolves the radius only to about 1e-8
        pi, trans = pi_trans
        try:
            sm = ScoreModel("bws", MarkovModel(pi=pi, trans=trans), 6)
        except ValueError:  # T not subcritical, or a rate of 0
            assume(False)
        assert sm.t_max == pytest.approx(bws_domain_edge(trans), rel=1e-6)

    def test_bws_edge_at_least_one_half_on_random_chains(self, rng):
        # T = P o (J P J)^T (o entrywise, J the complement swap), so Q(1/2)
        # is the entrywise geometric mean of two stochastic matrices, and
        # rho(Q(1/2)) <= sqrt(rho(P) rho(J P J)) = 1 (Elsner, Johnson and
        # Dias da Silva 1988): the edge is at 1/2 or beyond
        for _ in range(50):
            pi, trans = random_model(rng)
            assert np.abs(np.linalg.eigvals(np.sqrt(quasi_matrix(trans)))).max() <= 1.0
            assert ScoreModel("bws", MarkovModel(pi=pi, trans=trans), 6).t_max >= 0.5

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(pi_trans=sparse_models())
    def test_bws_edge_at_least_one_half_on_sparse_chains(self, pi_trans):
        pi, trans = pi_trans
        try:
            sm = ScoreModel("bws", MarkovModel(pi=pi, trans=trans), 6)
        except ValueError:  # T not subcritical, or a rate of 0
            assume(False)
        assert sm.t_max >= 0.5

    def test_tilted_matrix_is_complement_symmetric(self, rng):
        # T[a, b] = T[b', a'] exactly, so Q(t)^T = J Q(t) J for the
        # complement swap J (the base order reversed), and so is Q'(t)
        for _ in range(20):
            pi, trans = random_model(rng)
            log_t = mgf_module._log_base(quasi_transition_matrix(MarkovModel(pi=pi, trans=trans)))
            for t in (0.0, 0.3, 0.77, 0.99):
                for m in mgf_module._power_jet(log_t, t, 1):
                    assert np.array_equal(m.T, m[::-1, ::-1])

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(pi_trans=sparse_models(), t=st.floats(0.0, 0.99))
    def test_reversed_right_vector_is_the_left_one(self, pi_trans, t):
        # mgf_domain's slope takes the left Perron vector as the right one
        # reversed: l Q = rho l
        q = quasi_matrix(pi_trans[1]) ** (1.0 - t)
        vals, vecs = np.linalg.eig(q)
        i = np.argmax(vals.real)
        left = vecs[:, i].real[::-1]
        assert np.abs(left @ q - vals[i].real * left).max() <= 1e-12 * np.abs(left).max()

    def test_one_eigendecomposition_per_newton_step(self, bohv1, uniform, monkeypatch):
        steps, eigs = [], []
        root, eig = mgf_module.newton_root, np.linalg.eig
        monkeypatch.setattr(mgf_module, "newton_root", lambda f, *a, **k: root(
            lambda x: steps.append(x) or f(x), *a, **k))
        monkeypatch.setattr(np.linalg, "eig", lambda m: eigs.append(m) or eig(m))
        for model in (bohv1, uniform):
            mgf_domain(ScoreModel("bws", model, 6))
        # one more per model, for the radius at the cap 1 - 1e-9
        assert len(steps) > 2 and len(eigs) == len(steps) + 2

    def test_edge_on_a_sparse_chain_sweep(self):
        """|rho(Q(t_max)) - 1| over 200 sparse chains (numpy default_rng(1),
        6 zero transitions each, uniform pi), for the 138 with an edge below
        1, Q(t_max) from oracles.matrix_form_factors.

        np.linalg.eigvals resolves the radius of these reducible or
        periodic matrices only to about 1e-8, so Newton steps near the edge
        can wander inside that noise; newton_root returns the step with the
        smallest |rho - 1| it saw. The sweep's worst figure is 1.01e-10,
        under the bound of 1e-9. ROADMAP item 6 (the radius per strongly
        connected class) is the change that would tighten it further.
        """
        rng = np.random.default_rng(1)
        worst, edges = 0.0, 0
        for _ in range(200):
            trans = rng.random((4, 4))
            trans.flat[rng.choice(16, 6, replace=False)] = 0.0
            trans[trans.sum(axis=1) == 0.0] = 1.0
            trans /= trans.sum(axis=1, keepdims=True)
            pi = np.full(4, 0.25)
            try:
                sm = ScoreModel("bws", MarkovModel(pi=pi, trans=trans), 6)
            except PalinscanError:
                continue
            if sm.t_max < 1.0:
                edges += 1
                q = matrix_form_factors(pi, trans, 6, sm.t_max, "bws")[1]
                worst = max(worst, abs(np.abs(np.linalg.eigvals(q)).max() - 1.0))
        assert edges == 138
        assert worst <= 1e-9

    def test_bws_boundary_vs_eigvals(self, bohv1):
        sm = ScoreModel("bws", bohv1, 6)
        t_star = sm.t_max
        q = quasi_matrix(bohv1.trans) ** (1.0 - t_star)
        assert np.abs(np.linalg.eigvals(q)).max() == pytest.approx(1.0, abs=1e-6)

    def test_membership_and_rejection(self, bohv1):
        pls = ScoreModel("pls", bohv1, 6)
        assert 0.0 < pls.t_max < np.inf
        mgf_module._require_in_domain(pls, 0.0)
        mgf_module._require_in_domain(pls, pls.t_max - 1e-6)
        with pytest.raises(DomainError):
            mgf_module._require_in_domain(pls, pls.t_max + 0.1)
        bws = ScoreModel("bws", bohv1, 6)
        with pytest.raises(DomainError):
            mgf_module._require_in_domain(bws, 1.0)
        with pytest.raises(DomainError):
            score_mgf(bws, bws.t_max + 1e-3)

    def test_complex_arguments_use_real_part(self, bohv1):
        bws = ScoreModel("bws", bohv1, 6)
        mgf_module._require_in_domain(bws, complex(0.2, 50.0))  # fine: Re is inside
        with pytest.raises(DomainError):
            mgf_module._require_in_domain(bws, complex(1.2, 0.1))


class TestCumulant:
    def test_log_mgf_consistency(self, bohv1):
        sm = ScoreModel("pls", bohv1, 6)
        assert cumulants(sm, 1.2)[0] == pytest.approx(np.log(score_mgf(sm, 1.2)), rel=1e-12)

    def test_pcs_exact(self, bohv1):
        sm = ScoreModel("pcs", bohv1, 6)
        assert cumulants(sm, 0.9) == (0.9, 1.0, 0.0)

    def test_pls_mean_at_zero_vs_series(self, bohv1):
        # phi'(0) is the mean score: sum over k of (k/L) P(half = k) / rate
        sm = ScoreModel("pls", bohv1, 6)
        lam = markov_rate(bohv1, 6).value
        mean = sum(
            (k / 6.0) * mgf_at_length(sm, 0.0, k) for k in range(6, 400)
        ) / lam
        assert cumulants(sm, 0.0)[1] == pytest.approx(mean, rel=1e-6)

    def test_derivatives_stable_across_steps(self, bohv1):
        sm = ScoreModel("bws", bohv1, 6)
        f = lambda x: cumulants(sm, x)[0]
        for theta in (0.0, 0.2):
            h = 1e-4
            _, mean, var = cumulants(sm, theta)
            fd1 = (f(theta + h) - f(theta - h)) / (2 * h)
            assert mean == pytest.approx(fd1, rel=1e-5)
            fd2 = (f(theta + h) - 2 * f(theta) + f(theta - h)) / h**2
            assert var == pytest.approx(fd2, rel=1e-3)

    @pytest.mark.parametrize("m0", [0.0, -1.0, np.inf, np.nan])
    def test_mgf_not_finite_and_positive_refused(self, m0, bohv1, monkeypatch):
        sm = ScoreModel("pls", bohv1, 6)
        monkeypatch.setattr(mgf_module, "_mgf_jet",
                            lambda *args, **kwargs: np.array([m0, 1.0, 1.0], dtype=complex))
        with pytest.raises(SingularMatrixError, match="resolvent singular"):
            cumulants(sm, 0.5)

    def test_variance_positive(self, bohv1):
        for kind in ("pls", "bws"):
            sm = ScoreModel(kind, bohv1, 6)
            assert cumulants(sm, 0.1)[2] > 0.0


@st.composite
def markov_models(draw):
    """Random first-order models with every transition in (0, 1), whose
    quasi transition matrices are therefore strictly subcritical."""
    trans = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=16, max_size=16)))
    trans = trans.reshape(4, 4) / trans.reshape(4, 4).sum(axis=1, keepdims=True)
    vals, vecs = np.linalg.eig(trans.T)
    pi = np.abs(np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))]))
    return MarkovModel(pi=pi / pi.sum(), trans=trans)


def series_cumulants(model, half_length, kind, theta):
    """phi, phi', phi'' from the truncated exact-length series oracle.

    M' comes from a complex step through the series (no cancellation), and
    M'' from a finite difference of that M'.
    """
    step = 1e-20

    def m_prime(x):
        z = complex(x, step)
        return series_mgf(model.pi, model.trans, half_length, z, kind).imag / step

    m = float(np.real(series_mgf(model.pi, model.trans, half_length, theta, kind)))
    mean = m_prime(theta) / m
    return np.log(m), mean, derivative(m_prime, theta, order=1) / m - mean * mean


CLOSED_FORM_CASES = [(kind, iid) for kind in ("pls", "bws") for iid in (False, True)]


class TestClosedFormCumulants:
    """The closed-form cumulant kernel against a finite-difference oracle and
    the truncated series, over random strictly subcritical models.

    With iid the model is iid_model of the drawn composition: independent
    bases, whose quasi transition matrix has rank one.
    """

    @pytest.mark.parametrize("kind,iid", CLOSED_FORM_CASES)
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(model=markov_models(), half_length=st.integers(1, 8),
           frac=st.floats(0.0, 0.95))
    def test_derivatives_match_oracles(self, kind, iid, model, half_length, frac):
        model = iid_model(model.pi) if iid else model
        sm = ScoreModel(kind, model, half_length)
        theta = frac * sm.t_max
        phi, mean, var = cumulants(sm, theta)
        f = lambda x: cumulants(sm, x)[0]
        assert mean == pytest.approx(derivative(f, theta, order=1), rel=1e-8)
        assert var == pytest.approx(derivative(f, theta, order=2), rel=1e-4)
        s_phi, s_mean, s_var = series_cumulants(model, half_length, kind, theta)
        assert phi == pytest.approx(s_phi, rel=1e-10, abs=1e-12)
        assert mean == pytest.approx(s_mean, rel=1e-9)
        assert var == pytest.approx(s_var, rel=1e-6)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(model=markov_models())
    def test_bws_edge_matches_bisection_oracle(self, model):
        assert ScoreModel("bws", model, 6).t_max == pytest.approx(
            bws_domain_edge(model.trans), rel=1e-13)

    @pytest.mark.parametrize("kind,iid", CLOSED_FORM_CASES)
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(model=markov_models(), half_length=st.integers(1, 8))
    def test_domain_edge_fails_loudly(self, kind, iid, model, half_length):
        sm = ScoreModel(kind, iid_model(model.pi) if iid else model, half_length)
        t_max = sm.t_max
        for theta in (t_max, 1.01 * t_max):
            with pytest.raises(DomainError):
                cumulants(sm, theta)
        # One ulp inside the edge the resolvent I - Q is singular to
        # round-off, and the matrix form must refuse it rather than return
        # a NaN or a huge value: at one argument, and at one node of a stack
        # evaluated as array arithmetic.
        edge = np.nextafter(t_max, 0.0)
        with pytest.raises(SingularMatrixError):
            cumulants(sm, edge)
        z = np.linspace(0.0, 0.5 * t_max, 16) + 0.1j
        z[7] = edge
        with pytest.raises(SingularMatrixError):
            mgf_module._mgf_value(sm, z)


def pls_models():
    """(name, model) of BoHV-1 and three random_model chains."""
    rng = np.random.default_rng(3)
    return [("bohv1", bohv1_model())] + [
        (f"random{i}", MarkovModel(*random_model(rng))) for i in range(3)]


class TestPlsRationalForm:
    """pls's M(z) = e^z N(s) / (rate D(s)), s = e^(z/h), with D(s) = det(I -
    sT) (ScoreModel._pls_rational), against the matrix form, the truncated
    series and the series differentiated term by term."""

    @staticmethod
    def arguments(sm):
        """Real arguments up to 0.9 t_max, and the same shifted off the axis."""
        x = np.concatenate(([-2.0, -0.3, 0.0], np.linspace(0.1, 0.9, 5) * sm.t_max))
        return x, np.concatenate([x + 1j * y for y in (0.7, 5.0, -20.0)])

    @pytest.mark.parametrize("name,model", pls_models())
    @pytest.mark.parametrize("h", [4, 6])
    def test_values_match_matrix_form_and_series(self, name, model, h):
        # the series to rtol 1e-17, so that its truncated tail, about rtol /
        # (1 - rho e^(Re z / h)), stays below 1e-15 at 0.9 t_max
        sm = ScoreModel("pls", model, h)
        x, off_axis = self.arguments(sm)
        z = np.concatenate((x, off_axis))
        values = mgf_module._mgf_value(sm, z)
        scalars = np.array([mgf_module._mgf_jet(sm, w)[0] for w in z])
        for oracle in (
                [matrix_form_mgf(model.pi, model.trans, h, w, "pls") for w in z],
                [series_mgf(model.pi, model.trans, h, w, "pls", rtol=1e-17) for w in z]):
            for got in (values, scalars):
                assert np.all(np.abs(got / np.array(oracle) - 1.0) <= 1e-13)

    @pytest.mark.parametrize("name,model", pls_models())
    @pytest.mark.parametrize("h", [4, 6])
    def test_derivatives_match_termwise_series(self, name, model, h):
        sm = ScoreModel("pls", model, h)
        x, off_axis = self.arguments(sm)
        for z in np.concatenate((x, off_axis[::3])):
            expected = pls_series_jet(model.pi, model.trans, h, z)
            got = mgf_module._mgf_jet(sm, z, order=2)
            assert np.all(np.abs(got / expected - 1.0) <= 1e-13)

    @pytest.mark.parametrize("name,model", pls_models())
    def test_denominator_is_the_resolvent_determinant(self, name, model):
        # d_k = (-1)^k times the sum of T's principal k x k minors, and
        # D(s) = det(I - sT) at any s
        sm = ScoreModel("pls", model, 6)
        t = sm.t_matrix
        den = sm._pls_rational[1][1, 0]
        minors = [1.0] + [(-1) ** k * sum(np.linalg.det(t[np.ix_(rows, rows)])
                                         for rows in itertools.combinations(range(4), k))
                          for k in range(1, 5)]
        assert np.allclose(den, minors, rtol=1e-13, atol=1e-16)
        for s in (0.5, 1.0, 2.0 + 1.0j):
            assert np.polynomial.polynomial.polyval(s, den) == pytest.approx(
                np.linalg.det(np.eye(4) - s * t), rel=1e-13)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(pi_trans=nilpotent_models(), h=st.integers(1, 3))
    def test_nilpotent_chains(self, pi_trans, h):
        # T^4 = 0: D = 1 exactly, t_max is infinite, and the series is a
        # finite sum, which the form matches on and off the axis
        pi, trans = pi_trans
        try:
            sm = ScoreModel("pls", MarkovModel(pi=pi, trans=trans), h)
        except DomainError:  # a rate of 0
            assume(False)
        assert sm.t_max == np.inf
        assert sm._pls_rational[1][1, 0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        z = np.array([-3.0, 0.0, 1.5, 3.0, 1.0 + 4.0j, 3.0 - 50.0j])
        values = mgf_module._mgf_value(sm, z)
        for w, value in zip(z, values):
            assert value == pytest.approx(matrix_form_mgf(pi, trans, h, w, "pls"), rel=1e-13)
            assert value == pytest.approx(series_mgf(pi, trans, h, w, "pls"), rel=1e-13)
            got = mgf_module._mgf_jet(sm, w, order=2)
            assert np.all(np.abs(got / pls_series_jet(pi, trans, h, w) - 1.0) <= 1e-13)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(pi_trans=nilpotent_models(), h=st.integers(1, 3))
    def test_nilpotent_chains_far_out(self, pi_trans, h):
        # D = 1 whatever s is, so the determinant test, scaled by the
        # size of D's terms, passes at large arguments too, where the
        # entries of I - sT grow as s
        pi, trans = pi_trans
        try:
            sm = ScoreModel("pls", MarkovModel(pi=pi, trans=trans), h)
        except DomainError:  # a rate of 0
            assume(False)
        z = np.array([20.0, 40.0, 20.0 + 3.0j, 40.0 - 1.0j])
        values = mgf_module._mgf_value(sm, z)
        for w, value in zip(z, values):
            assert value == pytest.approx(matrix_form_mgf(pi, trans, h, w, "pls"), rel=1e-13)
            got = mgf_module._mgf_jet(sm, w, order=2)
            assert np.all(np.abs(got / pls_series_jet(pi, trans, h, w) - 1.0) <= 1e-13)
        for w in (20.0, 40.0):
            phi, mean, _ = cumulants(sm, w)
            assert phi == pytest.approx(np.log(score_mgf(sm, w)), rel=1e-14)

    @pytest.mark.parametrize("name,model", pls_models())
    def test_domain_edge(self, name, model):
        # at and beyond t_max a DomainError, one ulp inside it a singular
        # I - sT, on both paths
        sm = ScoreModel("pls", model, 6)
        edge = np.nextafter(sm.t_max, 0.0)
        for z in (sm.t_max, 1.01 * sm.t_max, sm.t_max + 0.5j):
            with pytest.raises(DomainError):
                mgf_module._mgf_jet(sm, z, order=2)
            with pytest.raises(DomainError):
                mgf_module._mgf_value(sm, np.array([0.0, z]))
        with pytest.raises(SingularMatrixError):
            cumulants(sm, edge)
        with pytest.raises(SingularMatrixError):
            mgf_module._mgf_value(sm, np.array([0.0, 0.5j, edge]))


class TestNodeGrid:
    """A NodeGrid holds its nodes as points and a panel layout (every start
    plus every offset); the bws kernel forms its node powers from that
    layout, and a plain array is the grid of its points alone."""

    def grid(self):
        """MGF arguments on the line Re z = 0.1, laid out like the nodes of
        analytic_nu."""
        return mgf_module.NodeGrid(0.1 + 1j * np.linspace(0.0, 1.0, 7),
                                   0.1 + 1j * np.arange(1.0, 20.0, 0.5),
                                   1j * np.linspace(0.0, 0.5, 16, endpoint=False))

    def test_nodes_points_then_panels(self):
        g = self.grid()
        expected = np.concatenate((g.points, (g.starts[:, None] + g.offsets).ravel()))
        assert np.array_equal(g.nodes, expected)
        assert g.nodes.shape == (7 + 38 * 16,)

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_kernel_on_a_grid_matches_its_nodes(self, kind, bohv1):
        # within 1e-13 of M(Re z), which bounds |M(z)|
        sm = ScoreModel(kind, bohv1, 6)
        g = self.grid()
        got = mgf_module._mgf_value(sm, g)
        flat = mgf_module._mgf_value(sm, g.nodes)
        assert got.shape == g.nodes.shape
        assert np.all(np.abs(got - flat) <= 1e-13 * score_mgf(sm, 0.1))
        # points alone take no panel product: the plain array's values
        assert np.array_equal(got[:7], mgf_module._mgf_value(sm, g.points))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(pi_trans=sparse_models())
    def test_grid_powers_on_sparse_chains(self, pi_trans):
        # zero bases stay exactly 0 and the rest match one exponential per
        # base and node within 1e-13, with nodes up to Re z = 0.99 t_max.
        # One rounding of z moves base ** (1 - z) by |l (1 - z)| eps
        # (relative, l = log base), so for a base as small as a start weight
        # that rounding left at 1e-16 (l = -37) the bound is 4 eps |l (1 - z)|.
        pi, trans = pi_trans
        pi = stationary(MarkovModel(pi=pi, trans=trans))  # start weights >= 0
        try:
            sm = ScoreModel("bws", MarkovModel(pi=pi, trans=trans), 6)
        except ValueError:  # T not subcritical, or a rate of 0
            assume(False)
        re = 0.99 * sm.t_max * np.linspace(-1.0, 1.0, 38)
        g = mgf_module.NodeGrid(re[::4] + 1j * np.linspace(0.0, 1.0, 10),
                                re + 1j * np.arange(1.0, 20.0, 0.5),
                                0.25j * (np.polynomial.legendre.leggauss(16)[0] + 1.0))
        got = mgf_module._bws_powers(sm, g)
        expected = bws_powers(pi, trans, g.nodes)
        zero = expected == 0.0
        assert np.all(got[zero] == 0.0)
        base = bws_powers(pi, trans, [0.0])
        log_base = np.log(np.where(base > 0.0, base, 1.0))
        tol = np.maximum(1e-13, 4 * np.finfo(float).eps * np.abs(log_base * (1 - g.nodes)))
        assert np.all(np.abs(got[~zero] / expected[~zero] - 1.0) <= tol[~zero])


class TestBatchedKernel:
    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    @pytest.mark.parametrize("iid", [False, True])
    def test_array_matches_scalar_evaluations(self, kind, iid, bohv1):
        # even a short array takes the array path, and scalars the
        # Taylor-coefficient path: the two agree to rounding
        sm = ScoreModel(kind, iid_model(bohv1.pi) if iid else bohv1, 6)
        z = np.array([0.0, 0.1 + 0.3j, 0.05 - 2.0j, 0.2, 7.0j])
        batch = mgf_module._mgf_value(sm, z)
        assert batch.shape == z.shape
        single = np.array([mgf_module._mgf_jet(sm, x, order=0)[0] for x in z])
        assert np.all(np.abs(batch / single - 1.0) <= 1e-13)

    @pytest.mark.parametrize("kind", ["pls", "bws"])
    @pytest.mark.parametrize("iid", [False, True])
    def test_node_stack_matches_small_evaluations(self, kind, iid, bohv1):
        # a stack of nodes, as the overshoot quadrature passes, agrees with
        # the scalar path at each node
        sm = ScoreModel(kind, iid_model(bohv1.pi) if iid else bohv1, 6)
        n = 64
        z = 0.3 * sm.t_max * np.linspace(-1.0, 1.0, n) + 1j * np.linspace(0.0, 7.0, n)
        stack = mgf_module._mgf_value(sm, z)
        assert stack.shape == (n,)
        small = np.array([mgf_module._mgf_jet(sm, x, order=0)[0] for x in z])
        assert np.all(np.abs(stack / small - 1.0) <= 1e-13)

    def test_node_values_independent_of_the_stack(self, bohv1):
        # array arithmetic gives each node the value it has in any other
        # stack of the same kind
        sm = ScoreModel("bws", bohv1, 6)
        z = 0.2 + 1j * np.linspace(0.0, 20.0, 128)
        whole = mgf_module._mgf_value(sm, z)
        halves = [mgf_module._mgf_value(sm, z[i::2]) for i in (0, 1)]
        assert np.array_equal(whole[0::2], halves[0])
        assert np.array_equal(whole[1::2], halves[1])

    def test_domain_checked_for_every_entry(self, bohv1):
        sm = ScoreModel("bws", bohv1, 6)
        with pytest.raises(DomainError):
            mgf_module._mgf_value(sm, np.array([0.1, sm.t_max + 0.01j]))
