"""Tests for the discrete diffusion schedule and posterior math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import NoiseSchedule


class TestCosineSchedule:
    def test_alpha_bar_monotone_decreasing(self):
        s = NoiseSchedule.cosine(9, 0.02)
        assert s.alpha_bar[0] == pytest.approx(1.0)
        assert np.all(np.diff(s.alpha_bar) < 0)

    def test_beta_in_valid_range(self):
        s = NoiseSchedule.cosine(9, 0.02)
        assert np.all(s.beta[1:] > 0)
        assert np.all(s.beta[1:] <= 0.999)

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule.cosine(9, 0.0)
        with pytest.raises(ValueError):
            NoiseSchedule.cosine(9, 1.0)

    def test_terminal_distribution_near_noise(self):
        s = NoiseSchedule.cosine(9, 0.05)
        a0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        q = s.q_t_given_0(a0, s.num_steps)
        # At t=T the marginal should be close to the stationary density.
        assert np.all(np.abs(q - 0.05) < 0.06)

    def test_t0_is_identity(self):
        s = NoiseSchedule.cosine(9, 0.05)
        a0 = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(s.q_t_given_0(a0, 0), a0)


class TestForwardSampling:
    def test_sample_shape_and_dtype(self):
        s = NoiseSchedule.cosine(9, 0.02)
        rng = np.random.default_rng(0)
        a0 = np.zeros((10, 10), dtype=bool)
        a_t = s.sample_t(a0, 5, rng)
        assert a_t.shape == (10, 10)
        assert a_t.dtype == bool

    def test_low_noise_preserves_edges(self):
        s = NoiseSchedule.cosine(9, 0.02)
        rng = np.random.default_rng(0)
        a0 = np.ones((40, 40), dtype=bool)
        a1 = s.sample_t(a0, 1, rng)
        assert a1.mean() > 0.9  # t=1 barely corrupts

    def test_prior_density(self):
        s = NoiseSchedule.cosine(9, 0.1)
        rng = np.random.default_rng(0)
        prior = s.prior_sample((200, 200), rng)
        assert abs(prior.mean() - 0.1) < 0.02


class TestPosterior:
    def test_requires_positive_t(self):
        s = NoiseSchedule.cosine(9, 0.02)
        with pytest.raises(ValueError):
            s.posterior_probability(np.zeros((2, 2)), np.zeros((2, 2)), 0)

    def test_t1_returns_x0_prediction(self):
        s = NoiseSchedule.cosine(9, 0.02)
        p = np.array([[0.3, 0.9]])
        np.testing.assert_allclose(
            s.posterior_probability(np.zeros((1, 2)), p, 1), p
        )

    def test_posterior_is_probability(self):
        s = NoiseSchedule.cosine(9, 0.05)
        rng = np.random.default_rng(1)
        a_t = rng.random((8, 8)) < 0.5
        p = rng.random((8, 8))
        post = s.posterior_probability(a_t, p, 5)
        assert np.all(post >= 0) and np.all(post <= 1)

    def test_confident_x0_pulls_posterior(self):
        s = NoiseSchedule.cosine(9, 0.05)
        a_t = np.ones((1, 1), dtype=bool)
        hi = s.posterior_probability(a_t, np.array([[0.99]]), 5)
        lo = s.posterior_probability(a_t, np.array([[0.01]]), 5)
        assert hi[0, 0] > lo[0, 0]

    @settings(max_examples=25, deadline=None)
    @given(
        t=st.integers(2, 9),
        p0=st.floats(0.01, 0.99),
        observed=st.booleans(),
    )
    def test_posterior_matches_bayes_enumeration(self, t, p0, observed):
        """Property: the closed form equals brute-force Bayes on the chain."""
        s = NoiseSchedule.cosine(9, 0.07)
        m = np.array([1 - s.noise_density, s.noise_density])

        def q_step(x_prev: int, x_next: int, step: int) -> float:
            stay = 1.0 - s.beta[step]
            return stay * (x_prev == x_next) + s.beta[step] * m[x_next]

        def q_cum(x0: int, x: int, step: int) -> float:
            ab = s.alpha_bar[step]
            return ab * (x0 == x) + (1 - ab) * m[x]

        x_t = int(observed)
        num = 0.0
        den = 0.0
        for x0, w in ((0, 1 - p0), (1, p0)):
            for x_prev in (0, 1):
                joint = w * q_cum(x0, x_prev, t - 1) * q_step(x_prev, x_t, t)
                den += joint
                if x_prev == 1:
                    num += joint
        expected = num / den
        got = s.posterior_probability(
            np.array([[bool(x_t)]]), np.array([[p0]]), t
        )[0, 0]
        assert got == pytest.approx(expected, abs=1e-9)


def _closed_form_posterior(s, a_t, p_x0, t):
    """The D3PM posterior evaluated over the whole block with per-entry
    transition factors: the form the factored ``posterior_probability``
    must equal bit for bit."""
    m1 = s.noise_density
    m0 = 1.0 - m1
    beta_t = s.beta[t]
    ab_prev = s.alpha_bar[t - 1]
    a_t = a_t.astype(np.float64)
    noise_into_xt = m0 * (1.0 - a_t) + m1 * a_t
    trans_into_xt = {
        0: (1.0 - beta_t) * (1.0 - a_t) + beta_t * noise_into_xt,
        1: (1.0 - beta_t) * a_t + beta_t * noise_into_xt,
    }
    cum = {
        (0, 0): ab_prev + (1.0 - ab_prev) * m0,
        (0, 1): (1.0 - ab_prev) * m1,
        (1, 0): (1.0 - ab_prev) * m0,
        (1, 1): ab_prev + (1.0 - ab_prev) * m1,
    }
    p_x0 = np.clip(p_x0, 1e-9, 1.0 - 1e-9)
    unnorm = {
        k: ((1.0 - p_x0) * (cum[(0, k)] * trans_into_xt[k])
            + p_x0 * (cum[(1, k)] * trans_into_xt[k]))
        for k in (0, 1)
    }
    return unnorm[1] / np.maximum(unnorm[0] + unnorm[1], 1e-30)


@pytest.mark.parametrize("t", range(2, 10))
@pytest.mark.parametrize(
    "kind", ["random", "all-zero", "all-one", "empty"])
def test_factored_posterior_equals_closed_form(t, kind):
    """The posterior evaluated with ``x_t = 0`` factors and patched at the
    ``x_t = 1`` entries is the per-entry closed form, bit for bit."""
    s = NoiseSchedule.cosine(9, 0.013)
    rng = np.random.default_rng([t, len(kind)])
    shape = (0, 57) if kind == "empty" else (96, 131)
    p_x0 = rng.random(shape)
    p_x0.flat[:3] = [0.0, 1.0, 1e-12][:p_x0.size]
    a_t = {
        "random": rng.random(shape) < 0.02,
        "all-zero": np.zeros(shape, dtype=bool),
        "all-one": np.ones(shape, dtype=bool),
        "empty": np.zeros(shape, dtype=bool),
    }[kind]
    got = s.posterior_probability(a_t, p_x0, t)
    assert got.shape == shape and got.dtype == np.float64
    np.testing.assert_array_equal(got, _closed_form_posterior(s, a_t, p_x0, t))
