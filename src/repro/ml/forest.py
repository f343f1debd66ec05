"""Random Forest regression (bagged CART trees with feature subsampling).

Two users:

- Adaptive Candidate Generation trains one forest per knob to map
  (datasize, application) -> a promising "mean value" (paper Eq. 6/7).
- The "RFR" competitor in Table VIII uses the same model as a point
  predictor of knob values.

:class:`PackedForests` flattens several fitted forests into one set of
node arrays, so Adaptive Candidate Generation predicts all 16 knobs for a
query with one array walk instead of 16 x 25 Python tree walks.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..utils.rng import get_rng

from .tree import DecisionTreeRegressor


class RandomForestRegressor:
    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        max_features: Optional[str] = "sqrt",
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.trees_: list = []
        self.n_features_: int = 0

    def _resolve_max_features(self, d: int) -> Optional[int]:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if self.max_features == "third":
            return max(1, d // 3)
        if isinstance(self.max_features, int):
            return min(d, self.max_features)
        raise ValueError(f"unknown max_features {self.max_features!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self.n_features_ = X.shape[1]
        rng = get_rng(self.seed)
        max_features = self._resolve_max_features(X.shape[1])
        self.trees_ = []
        n = len(X)
        for _ in range(self.n_estimators):
            idx = rng.integers(0, n, size=n)  # bootstrap sample
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=get_rng(rng.integers(0, 2**31)),
            )
            tree.fit(X[idx], y[idx])
            self.trees_.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        preds = np.stack([tree.predict(X) for tree in self.trees_], axis=0)
        return preds.mean(axis=0)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Std-dev of per-tree predictions — a cheap uncertainty estimate."""
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        preds = np.stack([tree.predict(X) for tree in self.trees_], axis=0)
        return preds.std(axis=0)


class PackedForests:
    """Fitted forests of equal size flattened into parallel node arrays.

    ``predict_row(x)[f]`` equals ``forests[f].predict(x[None, :])[0]``
    bit for bit: every tree is walked to the same leaf, and each forest's
    leaf values are averaged over a contiguous ``(forests, trees)`` row,
    the same summation order as :meth:`RandomForestRegressor.predict`.
    """

    def __init__(self, forests: Sequence[RandomForestRegressor]):
        n_trees = {len(forest.trees_) for forest in forests}
        if len(n_trees) != 1 or 0 in n_trees:
            raise ValueError("forests must be fitted and have equal tree counts")
        parts, roots, offset, depth = [], [], 0, 0
        for forest in forests:
            for tree in forest.trees_:
                feature, threshold, left, right, value = tree.to_arrays()
                parts.append((feature, threshold, left + offset, right + offset, value))
                roots.append(offset)
                offset += len(value)
                depth = max(depth, tree.depth())
        self.depth = depth
        (self.feature, self.threshold, self.left, self.right,
         self.value) = (np.concatenate(column) for column in zip(*parts))
        self.roots = np.array(roots, dtype=np.intp).reshape(len(forests), -1)
        self.n_features = forests[0].n_features_

    def predict_row(self, x: np.ndarray) -> np.ndarray:
        """Each forest's mean prediction for one feature row ``x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got shape {x.shape}")
        nodes = self.roots
        for _ in range(self.depth):
            go_left = x[self.feature[nodes]] <= self.threshold[nodes]
            nodes = np.where(go_left, self.left[nodes], self.right[nodes])
        return self.value[nodes].mean(axis=1)
