"""Discrete diffusion noise schedule over adjacency-matrix entries.

Each directed edge slot is a two-state variable (absent/present).  The
forward process applies per-step transition matrices

    Q_t = (1 - beta_t) * I + beta_t * 1 m^T,

whose stationary distribution ``m = [1 - p_noise, p_noise]`` is a sparse
Bernoulli prior matching circuit edge densities.  The cumulative product
has the closed form ``Qbar_t = alpha_bar_t * I + (1 - alpha_bar_t) 1 m^T``
with ``alpha_bar_t`` following the cosine schedule of Nichol & Dhariwal
(2021), the schedule the paper cites.  Training and sampling run these
chains only on a graph's legal pairs
(:class:`~repro.diffusion.features.PairBlock`); the methods are
elementwise, so they take whatever block of entries they are given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class NoiseSchedule:
    """Precomputed schedule for ``num_steps`` diffusion steps.

    Index convention: step ``t`` runs from 1 (least noisy) to
    ``num_steps`` (pure noise); ``alpha_bar[0] == 1`` is the clean data.
    """

    num_steps: int
    noise_density: float
    alpha_bar: np.ndarray  # shape (num_steps + 1,)
    beta: np.ndarray       # shape (num_steps + 1,); beta[0] unused

    @classmethod
    def cosine(
        cls, num_steps: int = 9, noise_density: float = 0.01, s: float = 0.008
    ) -> "NoiseSchedule":
        """Cosine alpha-bar schedule (paper Section IV-A)."""
        if not 0.0 < noise_density < 1.0:
            raise ValueError("noise_density must be in (0, 1)")
        steps = np.arange(num_steps + 1, dtype=np.float64)
        f = np.cos((steps / num_steps + s) / (1 + s) * np.pi / 2.0) ** 2
        alpha_bar = np.clip(f / f[0], 1e-8, 1.0)
        beta = np.zeros(num_steps + 1)
        beta[1:] = 1.0 - alpha_bar[1:] / alpha_bar[:-1]
        beta = np.clip(beta, 0.0, 0.999)
        return cls(num_steps, noise_density, alpha_bar, beta)

    # ------------------------------------------------------------------
    def q_t_given_0(self, a0: np.ndarray, t: int) -> np.ndarray:
        """P(A_t = 1 | A_0): marginal corruption probability per entry."""
        ab = self.alpha_bar[t]
        return ab * a0.astype(np.float64) + (1.0 - ab) * self.noise_density

    def sample_t(self, a0: np.ndarray, t: int,
                 rng: np.random.Generator) -> np.ndarray:
        """Draw a corrupted adjacency A_t ~ q(. | A_0)."""
        return (rng.random(a0.shape) < self.q_t_given_0(a0, t)).astype(bool)

    def prior_sample(self, shape: tuple[int, ...],
                     rng: np.random.Generator) -> np.ndarray:
        """A_T ~ stationary noise distribution."""
        return (rng.random(shape) < self.noise_density).astype(bool)

    # ------------------------------------------------------------------
    def posterior_probability(
        self, a_t: np.ndarray, p_x0: np.ndarray, t: int
    ) -> np.ndarray:
        """P(A_{t-1} = 1 | A_t, x0-prediction), marginalised over A_0.

        Standard D3PM posterior for independent 2-state chains:
        ``q(x_{t-1} | x_t, x_0) \\propto Q_t[x_{t-1}, x_t] *
        Qbar_{t-1}[x_0, x_{t-1}]``, then the network's ``p(A_0=1)``
        marginalises the unknown ``x_0``.  Every factor but ``p_x0``
        depends only on the binary ``x_t``, so the whole block is
        evaluated with the ``x_t = 0`` factors (:meth:`_posterior`) and
        the few ``x_t = 1`` entries are then recomputed with theirs; each
        entry sees the closed form's operations in the same order, bit
        for bit.
        """
        if t < 1:
            raise ValueError("posterior requires t >= 1")
        if t == 1:
            return np.clip(p_x0, 0.0, 1.0)
        p_x0 = np.clip(p_x0, 1e-9, 1.0 - 1e-9)
        out = self._posterior(p_x0, t, 0.0)
        hit = np.flatnonzero(a_t)
        out.flat[hit] = self._posterior(p_x0.flat[hit], t, 1.0)
        return out

    def _posterior(self, p_x0: np.ndarray, t: int, a_t: float) -> np.ndarray:
        """The closed form over entries that all observed ``x_t = a_t``."""
        m1 = self.noise_density
        m0 = 1.0 - m1
        beta_t = self.beta[t]
        ab_prev = self.alpha_bar[t - 1]
        # Q_t[x_{t-1}=k, x_t]: transition into the observed x_t.
        noise_into_xt = m0 * (1.0 - a_t) + m1 * a_t
        trans0 = (1.0 - beta_t) * (1.0 - a_t) + beta_t * noise_into_xt
        trans1 = (1.0 - beta_t) * a_t + beta_t * noise_into_xt
        # Qbar_{t-1}[x_0, x_{t-1}=k] * Q_t[k, x_t] for x_0 = 0 and 1.
        not_p = 1.0 - p_x0
        unnorm0 = not_p * ((ab_prev + (1.0 - ab_prev) * m0) * trans0)
        unnorm0 += p_x0 * (((1.0 - ab_prev) * m0) * trans0)
        unnorm1 = not_p * (((1.0 - ab_prev) * m1) * trans1)
        unnorm1 += p_x0 * ((ab_prev + (1.0 - ab_prev) * m1) * trans1)
        unnorm0 += unnorm1
        unnorm1 /= np.maximum(unnorm0, 1e-30, out=unnorm0)
        return unnorm1
