"""CART regression tree (variance-reduction splits).

The building block for :mod:`repro.ml.forest` (Adaptive Candidate
Generation's per-knob RFR, paper Sec. IV-A) and :mod:`repro.ml.gbm`
(the LightGBM stand-in in Table VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..utils.rng import get_rng


@dataclass
class _Node:
    """One tree node; leaves carry a prediction, internal nodes a split."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeRegressor:
    """Regression tree minimising squared error.

    Parameters
    ----------
    max_depth:
        Depth cap (root is depth 0).
    min_samples_split:
        Minimum samples to consider splitting a node.
    min_samples_leaf:
        Minimum samples in each child of a split.
    max_features:
        If set, the number of features randomly considered per split
        (the randomness that de-correlates forest members).
    rng:
        Generator used only when ``max_features`` is set.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng or get_rng(0)
        self._root: Optional[_Node] = None
        self.n_features_: int = 0

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError(f"X and y length mismatch: {len(X)} vs {len(y)}")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self.n_features_ = X.shape[1]
        self._root = self._build(X, y, depth=0)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=float(y.mean()))
        if depth >= self.max_depth or len(y) < self.min_samples_split or np.ptp(y) == 0.0:
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        n, d = X.shape
        features = np.arange(d)
        if self.max_features is not None and self.max_features < d:
            features = self.rng.choice(d, size=self.max_features, replace=False)

        best_gain = 1e-12
        best: Optional[tuple] = None
        total_sum = y.sum()
        total_sq = (y**2).sum()
        parent_sse = total_sq - total_sum**2 / n

        for feature in features:
            order = np.argsort(X[:, feature], kind="stable")
            xs = X[order, feature]
            ys = y[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(ys**2)
            # Candidate split after position i (1-based sizes).
            for i in range(self.min_samples_leaf, n - self.min_samples_leaf + 1):
                if i < n and xs[i - 1] == xs[i]:
                    continue  # cannot split between equal values
                if i == n:
                    continue
                left_n, right_n = i, n - i
                left_sse = csq[i - 1] - csum[i - 1] ** 2 / left_n
                right_sum = total_sum - csum[i - 1]
                right_sse = (total_sq - csq[i - 1]) - right_sum**2 / right_n
                gain = parent_sse - left_sse - right_sse
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float((xs[i - 1] + xs[i]) / 2.0))
        return best

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, got {X.shape[1]}")
        out = np.empty(len(X))
        for i, row in enumerate(X):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out

    def to_arrays(self):
        """The tree as parallel ``feature/threshold/left/right/value`` arrays.

        Node 0 is the root.  A leaf's ``left`` and ``right`` point to the
        leaf itself, so a walk of ``depth()`` steps that always applies the
        split ends on the same leaf as :meth:`predict`.
        """
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        nodes = [self._root]
        index = {id(self._root): 0}
        for node in nodes:   # grows while iterating: breadth-first numbering
            for child in (node.left, node.right):
                if child is not None:
                    index[id(child)] = len(nodes)
                    nodes.append(child)
        feature = np.array([max(n.feature, 0) for n in nodes], dtype=np.intp)
        threshold = np.array([n.threshold for n in nodes], dtype=np.float64)
        left = np.array([i if n.is_leaf else index[id(n.left)]
                         for i, n in enumerate(nodes)], dtype=np.intp)
        right = np.array([i if n.is_leaf else index[id(n.right)]
                          for i, n in enumerate(nodes)], dtype=np.intp)
        value = np.array([n.prediction for n in nodes], dtype=np.float64)
        return feature, threshold, left, right, value

    def depth(self) -> int:
        """Actual depth of the fitted tree."""

        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("tree is not fitted")
        return walk(self._root)
