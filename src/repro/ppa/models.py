"""Regression models for PPA prediction, from scratch on numpy.

MasterRTL uses XGBoost; this module provides the same model family --
gradient-boosted regression trees -- plus a random forest and a ridge
baseline, with the familiar fit/predict interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: _Node | None = None
    right: _Node | None = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """CART regression tree with exact variance-reduction splits."""

    def __init__(self, max_depth: int = 3, min_leaf: int = 2,
                 max_features: int | None = None):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self._root: _Node | None = None

    def fit(self, x: np.ndarray, y: np.ndarray,
            rng: np.random.Generator | None = None) -> "RegressionTree":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(x) != len(y) or len(x) == 0:
            raise ValueError("x and y must be non-empty and aligned")
        self._rng = rng or np.random.default_rng(0)
        self._root = self._build(x, y, depth=0)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * self.min_leaf:
            return node
        best = self._best_split(x, y)
        if best is None:
            return node
        feature, threshold = best
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, x: np.ndarray, y: np.ndarray
                    ) -> tuple[int, float] | None:
        n, d = x.shape
        features = np.arange(d)
        if self.max_features is not None and self.max_features < d:
            features = self._rng.choice(d, self.max_features, replace=False)
        base_sse = ((y - y.mean()) ** 2).sum()
        best_gain, best = 1e-12, None
        for f in features:
            order = np.argsort(x[:, f], kind="stable")
            xs, ys = x[order, f], y[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(ys ** 2)
            total_sum, total_sq = csum[-1], csq[-1]
            for i in range(self.min_leaf, n - self.min_leaf + 1):
                if i < n and xs[i - 1] == xs[i]:
                    continue  # cannot split between equal values
                left_sse = csq[i - 1] - csum[i - 1] ** 2 / i
                right_n = n - i
                right_sum = total_sum - csum[i - 1]
                right_sse = (total_sq - csq[i - 1]) - right_sum ** 2 / right_n
                gain = base_sse - left_sse - right_sse
                if gain > best_gain:
                    best_gain = gain
                    threshold = (
                        xs[i - 1] if i >= n else (xs[i - 1] + xs[i]) / 2.0
                    )
                    best = (int(f), float(threshold))
        return best

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty(len(x))
        for i, row in enumerate(x):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


class GradientBoostedTrees:
    """Least-squares gradient boosting (the XGBoost stand-in)."""

    def __init__(self, n_estimators: int = 60, learning_rate: float = 0.1,
                 max_depth: int = 3, min_leaf: int = 2,
                 subsample: float = 1.0, seed: int = 0):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.subsample = subsample
        self.seed = seed
        self._trees: list[RegressionTree] = []
        self._base: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        self._trees = []
        self._base = float(y.mean())
        residual = y - self._base
        current = np.full(len(y), 0.0)
        for _ in range(self.n_estimators):
            target = residual - current
            idx = np.arange(len(y))
            if self.subsample < 1.0:
                take = max(2 * self.min_leaf, int(len(y) * self.subsample))
                idx = rng.choice(len(y), size=min(take, len(y)), replace=False)
            tree = RegressionTree(self.max_depth, self.min_leaf)
            tree.fit(x[idx], target[idx], rng)
            self._trees.append(tree)
            current = current + self.learning_rate * tree.predict(x)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("model is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.full(len(x), self._base)
        for tree in self._trees:
            out += self.learning_rate * tree.predict(x)
        return out


class RandomForest:
    """Bagged regression trees with feature subsampling."""

    def __init__(self, n_estimators: int = 40, max_depth: int = 6,
                 min_leaf: int = 2, seed: int = 0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.seed = seed
        self._trees: list[RegressionTree] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        max_features = max(1, x.shape[1] // 3)
        self._trees = []
        for _ in range(self.n_estimators):
            idx = rng.integers(0, len(y), size=len(y))
            tree = RegressionTree(self.max_depth, self.min_leaf, max_features)
            tree.fit(x[idx], y[idx], rng)
            self._trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("model is not fitted")
        preds = np.stack([t.predict(x) for t in self._trees])
        return preds.mean(axis=0)


class Ridge:
    """Closed-form L2-regularised linear regression with normalisation."""

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha
        self._w: np.ndarray | None = None
        self._mean_x = None
        self._std_x = None
        self._mean_y = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "Ridge":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._mean_x = x.mean(axis=0)
        self._std_x = np.maximum(x.std(axis=0), 1e-9)
        self._mean_y = float(y.mean())
        xn = (x - self._mean_x) / self._std_x
        gram = xn.T @ xn + self.alpha * np.eye(x.shape[1])
        self._w = np.linalg.solve(gram, xn.T @ (y - self._mean_y))
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._w is None:
            raise RuntimeError("model is not fitted")
        xn = (np.atleast_2d(x) - self._mean_x) / self._std_x
        return xn @ self._w + self._mean_y
