"""Adaptive Candidate Generation (paper Sec. IV-A).

For every knob d, a Random Forest Regression model maps (input datasize,
application) to a promising "mean value" (Eq. 6).  The search region is
``[RFR - sigma_d, RFR + sigma_d]`` (Eq. 7) where ``sigma_d`` is the
standard deviation of knob d over the top-40 % fastest training instances.
Candidates are then sampled uniformly inside the region, so the recommender
only has to rank a small, promising set.

The 16 fitted forests are also kept flattened as one
:class:`~repro.ml.forest.PackedForests`, built in :meth:`fit` and again
when a pickle is loaded (it is not pickled itself), so a query predicts
every knob with one array walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ml.forest import PackedForests, RandomForestRegressor
from ..sparksim.config import KNOB_SPECS, NUM_KNOBS, SparkConf
from ..sparksim.eventlog import AppRun

TOP_FRACTION = 0.4  # paper: top 40 % instances with lowest execution time

_LOWS = np.array([spec.low for spec in KNOB_SPECS], dtype=np.float64)
_HIGHS = np.array([spec.high for spec in KNOB_SPECS], dtype=np.float64)


@dataclass
class _AppFeaturizer:
    """One-hot application encoding + log datasize."""

    app_names: List[str]

    def vector(self, app_name: str, datasize_rows: float) -> np.ndarray:
        onehot = np.zeros(len(self.app_names))
        if app_name in self.app_names:
            onehot[self.app_names.index(app_name)] = 1.0
        return np.concatenate([[np.log1p(datasize_rows)], onehot])


class AdaptiveCandidateGenerator:
    """Per-knob RFR + sigma span region, sampled uniformly."""

    def __init__(self, n_estimators: int = 25, max_depth: int = 6, seed: int = 0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.seed = seed
        self.models_: List[RandomForestRegressor] = []
        self.sigma_: np.ndarray = np.zeros(NUM_KNOBS)
        self.featurizer_: Optional[_AppFeaturizer] = None
        self._packed: Optional[PackedForests] = None

    # Pickling: the packed arrays are derived from ``models_``.
    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_packed", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._packed = PackedForests(self.models_) if self.models_ else None

    # ------------------------------------------------------------------
    def fit(self, runs: Sequence[AppRun]) -> "AdaptiveCandidateGenerator":
        """Fit from application-level runs (knob vectors + execution times)."""
        good = self._top_instances(runs)
        if not good:
            raise ValueError("no successful runs to fit candidate generation")
        self.featurizer_ = _AppFeaturizer(sorted({r.app_name for r in runs}))
        X = np.stack(
            [self.featurizer_.vector(r.app_name, r.data_features[0]) for r in good]
        )
        knob_matrix = SparkConf.stack([r.conf for r in good])
        self.sigma_ = knob_matrix.std(axis=0)
        # Guard degenerate spans: fall back to 10 % of the knob range.
        ranges = np.array([spec.high - spec.low for spec in KNOB_SPECS])
        self.sigma_ = np.where(self.sigma_ < 1e-9, 0.1 * ranges, self.sigma_)

        self.models_ = []
        for d in range(NUM_KNOBS):
            model = RandomForestRegressor(
                n_estimators=self.n_estimators, max_depth=self.max_depth, seed=self.seed + d
            )
            model.fit(X, knob_matrix[:, d])
            self.models_.append(model)
        self._packed = PackedForests(self.models_)
        return self

    @staticmethod
    def _top_instances(runs: Sequence[AppRun]) -> List[AppRun]:
        """Top-40 % fastest successful runs within each (app, datasize)."""
        groups: Dict[Tuple[str, float], List[AppRun]] = {}
        for run in runs:
            if run.success:
                groups.setdefault((run.app_name, float(run.data_features[0])), []).append(run)
        selected: List[AppRun] = []
        for members in groups.values():
            members.sort(key=lambda r: r.duration_s)
            keep = max(1, int(np.ceil(TOP_FRACTION * len(members))))
            selected.extend(members[:keep])
        return selected

    # ------------------------------------------------------------------
    def _centers(self, app_name: str, datasize_rows: float) -> np.ndarray:
        """Every knob's RFR prediction (Eq. 6) for one query."""
        if self._packed is None:
            raise RuntimeError("candidate generator is not fitted")
        return self._packed.predict_row(self.featurizer_.vector(app_name, datasize_rows))

    def region(self, app_name: str, datasize_rows: float) -> List[Tuple[float, float]]:
        """The per-knob search interval [center - sigma, center + sigma]."""
        centers = self._centers(app_name, datasize_rows)
        low = np.maximum(_LOWS, centers - self.sigma_)
        high = np.minimum(_HIGHS, centers + self.sigma_)
        empty = low > high
        low = np.where(empty, _LOWS, low)
        high = np.where(empty, _HIGHS, high)
        return list(zip(low.tolist(), high.tolist()))

    def predict_point(self, app_name: str, datasize_rows: float) -> SparkConf:
        """The bare-RFR competitor: round the per-knob centers to a conf."""
        return SparkConf.from_vector(self._centers(app_name, datasize_rows))

    def generate(
        self,
        app_name: str,
        datasize_rows: float,
        n_candidates: int,
        rng: np.random.Generator,
    ) -> List[SparkConf]:
        """Sample ``n_candidates`` configurations inside the region.

        One draw for the whole ``(n_candidates, 16)`` matrix, row-major,
        which is the same stream as one ``rng.uniform(low, high)`` per knob
        per candidate.
        """
        low, high = np.array(self.region(app_name, datasize_rows)).T
        return SparkConf.from_matrix(rng.uniform(low, high, size=(n_candidates, NUM_KNOBS)))
