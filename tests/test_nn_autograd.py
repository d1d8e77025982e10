"""Gradient-correctness and training tests for the autograd substrate."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Adam,
    Embedding,
    GRUCell,
    Linear,
    SGD,
    Tensor,
    bce_with_logits,
    mse,
    scatter_rows,
    softmax_cross_entropy,
    time_features,
)


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(make_output, x_data: np.ndarray, atol: float = 1e-5):
    """Compare autograd gradient against finite differences."""
    x = Tensor(x_data.copy())
    x.requires_grad = True
    out = make_output(x)
    out.backward()
    analytic = x.grad.copy()

    def scalar_fn(arr):
        return make_output(Tensor(arr)).item()

    numeric = numerical_grad(scalar_fn, x_data.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


RNG = np.random.default_rng(0)


class TestElementwiseGrads:
    def test_add_mul(self):
        y = RNG.normal(size=(3, 4))
        check_gradient(lambda x: ((x + Tensor(y)) * x).sum(), RNG.normal(size=(3, 4)))

    def test_broadcast_add(self):
        b = RNG.normal(size=(4,))
        check_gradient(lambda x: (x + Tensor(b)).sum(), RNG.normal(size=(3, 4)))

    def test_broadcast_mul_row(self):
        b = RNG.normal(size=(1, 4))
        check_gradient(lambda x: (x * Tensor(b)).sum(), RNG.normal(size=(3, 4)))

    def test_sub_div(self):
        y = RNG.normal(size=(3,)) + 3.0
        check_gradient(lambda x: (x / Tensor(y) - x).sum(), RNG.normal(size=(3,)))

    def test_pow(self):
        check_gradient(lambda x: (x ** 3.0).sum(), RNG.uniform(0.5, 2.0, size=(5,)))

    def test_sigmoid_tanh_relu(self):
        check_gradient(lambda x: x.sigmoid().sum(), RNG.normal(size=(6,)))
        check_gradient(lambda x: x.tanh().sum(), RNG.normal(size=(6,)))
        check_gradient(
            lambda x: x.relu().sum(), RNG.normal(size=(6,)) + 0.5
        )  # keep away from the kink

    def test_exp_log(self):
        check_gradient(lambda x: x.exp().sum(), RNG.normal(size=(4,)))
        check_gradient(lambda x: x.log().sum(), RNG.uniform(0.5, 2.0, size=(4,)))


class TestMatrixGrads:
    def test_matmul_left(self):
        w = RNG.normal(size=(4, 2))
        check_gradient(lambda x: (x @ Tensor(w)).sum(), RNG.normal(size=(3, 4)))

    def test_matmul_right(self):
        a = RNG.normal(size=(3, 4))

        def f(x):
            return (Tensor(a) @ x).sum()

        check_gradient(f, RNG.normal(size=(4, 2)))

    def test_transpose(self):
        check_gradient(lambda x: (x.T @ x).sum(), RNG.normal(size=(3, 4)))

    def test_reshape(self):
        check_gradient(
            lambda x: (x.reshape(2, 6) ** 2.0).sum(), RNG.normal(size=(3, 4))
        )

    def test_sum_axis(self):
        check_gradient(
            lambda x: (x.sum(axis=0) ** 2.0).sum(), RNG.normal(size=(3, 4))
        )

    def test_mean_axis_keepdims(self):
        check_gradient(
            lambda x: (x - x.mean(axis=1, keepdims=True)).pow(2.0).sum(),
            RNG.normal(size=(3, 4)),
        )

    def test_concat(self):
        y = RNG.normal(size=(3, 2))
        check_gradient(
            lambda x: (x.concat(Tensor(y), axis=1) ** 2.0).sum(),
            RNG.normal(size=(3, 4)),
        )

    def test_take_rows(self):
        idx = np.array([0, 2, 2, 1])
        check_gradient(
            lambda x: (x.take_rows(idx) ** 2.0).sum(), RNG.normal(size=(3, 4))
        )
        # Repeated indices: the bincount scatter sums each row in input
        # order, exactly as np.add.at does.
        rng = np.random.default_rng(7)
        idx = rng.integers(0, 5, size=200)
        x = Tensor(rng.normal(size=(6, 3)))
        x.requires_grad = True
        upstream = rng.normal(size=(200, 3))
        x.take_rows(idx).backward(upstream)
        expected = np.zeros((6, 3))
        np.add.at(expected, idx, upstream)
        assert x.grad.tobytes() == expected.tobytes()
        # A 2-d index scatters its (8, 25) gathered rows the same way.
        index = rng.integers(0, 5, size=(8, 25))
        values = rng.normal(size=(8, 25, 2))
        expected = np.zeros((5, 2))
        np.add.at(expected, index, values)
        assert scatter_rows(index, values, 5).tobytes() == expected.tobytes()


class TestLosses:
    def test_bce_matches_reference(self):
        logits = Tensor(np.array([0.0, 2.0, -2.0]))
        y = np.array([1.0, 1.0, 0.0])
        loss = bce_with_logits(logits, y)
        p = 1 / (1 + np.exp(-logits.data))
        ref = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        assert loss.item() == pytest.approx(ref, abs=1e-9)

    def test_bce_gradient(self):
        y = (RNG.uniform(size=(5,)) > 0.5).astype(float)
        check_gradient(lambda x: bce_with_logits(x, y), RNG.normal(size=(5,)))

    def test_bce_weighted(self):
        y = np.array([1.0, 0.0])
        w = np.array([2.0, 0.0])
        loss = bce_with_logits(Tensor(np.zeros(2)), y, weights=w)
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-9)

    def test_mse_gradient(self):
        y = RNG.normal(size=(4,))
        check_gradient(lambda x: mse(x, y), RNG.normal(size=(4,)))

    def test_softmax_ce_gradient(self):
        labels = np.array([0, 2, 1])
        check_gradient(
            lambda x: softmax_cross_entropy(x, labels), RNG.normal(size=(3, 4))
        )

    def test_softmax_ce_matches_reference(self):
        logits = RNG.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        got = softmax_cross_entropy(Tensor(logits), labels).item()
        exps = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exps / exps.sum(axis=1, keepdims=True)
        ref = -np.log(probs[np.arange(3), labels]).mean()
        assert got == pytest.approx(ref, abs=1e-9)


class TestLayers:
    def test_linear_shapes(self):
        rng = np.random.default_rng(1)
        layer = Linear(4, 3, rng)
        out = layer(Tensor(RNG.normal(size=(5, 4))))
        assert out.shape == (5, 3)

    def test_mlp_learns_xor(self):
        rng = np.random.default_rng(2)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0.0, 1.0, 1.0, 0.0])
        mlp = MLP([2, 16, 1], rng)
        opt = Adam(mlp.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            loss = bce_with_logits(mlp(Tensor(x)).reshape(4), y)
            loss.backward()
            opt.step()
        preds = (mlp(Tensor(x)).sigmoid().numpy().reshape(4) > 0.5).astype(float)
        assert np.array_equal(preds, y)

    def test_embedding_lookup_and_grad(self):
        rng = np.random.default_rng(3)
        emb = Embedding(10, 4, rng)
        out = emb(np.array([1, 1, 5]))
        assert out.shape == (3, 4)
        out.sum().backward()
        grad = emb.weight.grad
        assert grad[1].sum() == pytest.approx(8.0)  # row 1 hit twice
        assert grad[0].sum() == 0.0

    def test_gru_cell_shapes_and_grad_flow(self):
        rng = np.random.default_rng(4)
        cell = GRUCell(3, 5, rng)
        h = Tensor(np.zeros((2, 5)))
        out = cell(Tensor(RNG.normal(size=(2, 3))), h)
        assert out.shape == (2, 5)
        out.sum().backward()
        assert all(p.grad is not None for p in cell.parameters())

    def test_state_dict_roundtrip(self):
        rng = np.random.default_rng(5)
        m1 = MLP([2, 4, 1], rng)
        m2 = MLP([2, 4, 1], np.random.default_rng(99))
        m2.load_state_dict(m1.state_dict())
        x = Tensor(RNG.normal(size=(3, 2)))
        np.testing.assert_allclose(m1(x).numpy(), m2(x).numpy())


class TestOptimizers:
    def _quadratic_descent(self, opt_cls, **kwargs):
        x = Tensor(np.array([5.0, -3.0]))
        x.requires_grad = True
        opt = opt_cls([x], **kwargs)
        for _ in range(200):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        return np.abs(x.data).max()

    def test_sgd_converges(self):
        assert self._quadratic_descent(SGD, lr=0.1) < 1e-3

    def test_sgd_momentum_converges(self):
        assert self._quadratic_descent(SGD, lr=0.05, momentum=0.9) < 1e-3

    def test_adam_converges(self):
        assert self._quadratic_descent(Adam, lr=0.2) < 1e-3

    def test_optimizer_rejects_empty(self):
        with pytest.raises(ValueError):
            SGD([Tensor(np.zeros(2))], lr=0.1)


class TestTimeFeatures:
    def test_shape_and_range(self):
        f = time_features(np.array([0.0, 0.5, 1.0]), 8)
        assert f.shape == (3, 8)
        assert np.all(np.abs(f) <= 1.0 + 1e-12)

    def test_distinct_timesteps_distinct_features(self):
        f = time_features(np.array([0.1, 0.9]), 16)
        assert not np.allclose(f[0], f[1])

    def test_odd_dim_padded(self):
        assert time_features(0.3, 7).shape == (1, 7)
