"""Random forest regression (Breiman 2001) — the paper's surrogate model.

Each tree is grown on a bootstrap resample of the training set with a
random feature subset considered at every split; the forest predicts
the mean of its trees.  Out-of-bag (OOB) predictions give an unbiased
generalization estimate without a held-out set — useful because the
paper's training sets are only ``nmax = 100`` evaluations.

Prediction runs through a *packed* representation: every tree's flat
node arrays are concatenated into one offset-indexed structure, so
scoring the 10k-configuration pool is a single vectorized traversal of
all trees at once instead of a Python loop of ``n_estimators``
``tree.predict`` calls.  The packed path routes each row through
exactly the same comparisons as the per-tree path, so its outputs are
bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml import _native
from repro.ml.base import Regressor, check_X, check_Xy
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import RngFactory

__all__ = ["PackedTrees", "RandomForestRegressor"]


class PackedTrees:
    """Offset-indexed concatenation of an ensemble's flat node arrays.

    Child pointers are rebased into the concatenated index space, so a
    single (tree, row) cursor array can walk every tree of the ensemble
    simultaneously.  Traversal decisions are the same
    ``x[feature] <= threshold`` comparisons each tree's own ``apply``
    performs, so per-tree values read from the packed arrays are
    bit-identical to ``tree.predict``.
    """

    __slots__ = (
        "feature", "threshold", "left", "right", "value", "roots", "_scratch",
    )

    def __init__(self, trees: list[DecisionTreeRegressor]) -> None:
        if not trees:
            raise ModelError("cannot pack an empty ensemble")
        sizes = np.array([t.nodes.n_nodes for t in trees])
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.feature = np.concatenate([t.nodes.feature for t in trees])
        self.threshold = np.concatenate([t.nodes.threshold for t in trees])
        self.value = np.concatenate([t.nodes.value for t in trees])
        # Rebase child ids; leaves keep a self-loop-free sentinel as-is.
        self.left = np.concatenate(
            [t.nodes.left + off for t, off in zip(trees, offsets)]
        )
        self.right = np.concatenate(
            [t.nodes.right + off for t, off in zip(trees, offsets)]
        )
        self.roots = offsets
        self._scratch: np.ndarray | None = None

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    def _values_scratch(self, n: int) -> np.ndarray:
        """Reusable ``(n_trees, n)`` output buffer.  Scoring a 10k pool
        materializes a multi-megabyte matrix; a fresh allocation per
        call pays mmap page faults, so internal hot paths (predict,
        predict_std, OOB) reuse one buffer.  Only for callers that
        fully consume the values before the next call — the public
        ``tree_values`` default stays a fresh allocation."""
        if self._scratch is None or self._scratch.shape[1] != n:
            self._scratch = np.empty((self.n_trees, n))
        return self._scratch

    def tree_values(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-tree predictions, shape ``(n_trees, n_rows)``.

        Uses the compiled traversal kernel when the host has a C
        compiler (bit-identical — same comparisons, same leaf values),
        otherwise a NumPy traversal with a shrinking active set: each
        step advances every (tree, row) cursor still at an internal
        node, dropping cursors as they reach leaves.

        ``out`` is an optional preallocated result buffer; the returned
        array is authoritative (the NumPy fallback may ignore ``out``).
        """
        native = _native.tree_values(
            self.feature, self.threshold, self.left, self.right,
            self.value, self.roots, X, out,
        )
        if native is not None:
            return native
        # NumPy fallback: per-tree depth-first row partitioning.  Each
        # internal node splits its surviving row set with one comparison
        # gather, so work is O(rows reaching the node) instead of the
        # per-level full-cursor updates of the historical traversal —
        # about 3x faster on a 10k-row pool, and trivially bit-identical
        # (the leaf values are copied, not computed).
        n_trees = len(self.roots)
        n = X.shape[0]
        if out is None or out.shape != (n_trees, n):
            out = np.empty((n_trees, n))
        feature, threshold = self.feature, self.threshold
        left, right, value = self.left, self.right, self.value
        # Column-major copy of the pool: each node compares one feature
        # across its surviving rows, and a contiguous column turns that
        # gather into a flat 1-D take instead of a strided 2-D fancy
        # index.  Values are copied, not computed, so the layout cannot
        # affect the result.
        cols = np.ascontiguousarray(X.T)
        all_rows = np.arange(n)
        for t in range(n_trees):
            row_out = out[t]
            stack = [(int(self.roots[t]), all_rows)]
            while stack:
                node, rows = stack.pop()
                f = feature[node]
                if f < 0:
                    row_out[rows] = value[node]
                    continue
                go_left = cols[f].take(rows) <= threshold[node]
                stack.append((int(left[node]), rows[go_left]))
                stack.append((int(right[node]), rows[~go_left]))
        return out

    def values_std(self, X: np.ndarray) -> np.ndarray:
        """Column std of the per-tree predictions, bit-identical to
        ``tree_values(X).std(axis=0)``.  The fused kernel skips the two
        extra ``(n_trees, n)`` temporaries NumPy's ``std`` allocates."""
        vals = self.tree_values(X, out=self._values_scratch(X.shape[0]))
        std = _native.ensemble_std(vals)
        if std is not None:
            return std
        return vals.std(axis=0)


class RandomForestRegressor(Regressor):
    """Bagged ensemble of CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_features:
        Per-split feature subset (default ``"third"``, the classic
        regression-forest choice of p/3).
    max_depth, min_samples_split, min_samples_leaf:
        Passed through to each tree.
    seed:
        Root seed; tree ``i`` draws from an independent child stream,
        so results do not depend on construction order.
    engine:
        Split-search engine passed to each tree (``"presort"`` or
        ``"legacy"``); both grow bit-identical trees.
    """

    def __init__(
        self,
        n_estimators: int = 64,
        max_features: int | float | str | None = "third",
        max_depth: int | None = None,
        min_samples_split: int = 5,
        min_samples_leaf: int = 2,
        seed: int = 0,
        engine: str = "presort",
    ) -> None:
        if n_estimators < 1:
            raise ModelError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.engine = engine
        self.trees: list[DecisionTreeRegressor] = []
        self._packed: PackedTrees | None = None
        self._oob_prediction: np.ndarray | None = None
        self._importances: np.ndarray | None = None

    @classmethod
    def from_spec(cls, spec=None, engine: str = "presort") -> "RandomForestRegressor":
        """Build a forest from a :class:`repro.spec.ForestSpec`.

        The single construction path for every forest the tuner builds
        (surrogate and SMBO refit alike), so hyperparameter defaults
        live in one place.  ``engine`` stays separate: it is an
        execution detail, not a tuner hyperparameter.
        """
        from repro.spec import ForestSpec

        if spec is None:
            spec = ForestSpec()
        return cls(
            n_estimators=spec.n_estimators,
            max_features=spec.max_features,
            max_depth=spec.max_depth,
            min_samples_split=spec.min_samples_split,
            min_samples_leaf=spec.min_samples_leaf,
            seed=spec.seed,
            engine=engine,
        )

    def _tree_params(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "engine": self.engine,
        }

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = check_Xy(X, y)
        n, p = X.shape
        self.trees, samples = self._grow(X, y, n, p)
        importances = np.zeros(p)
        for tree in self.trees:
            importances += tree.feature_importances_
        self._packed = PackedTrees(self.trees)
        # OOB bookkeeping, batched: one bincount per tree gives the O(n)
        # out-of-bag mask, and one packed traversal of the training rows
        # yields every tree's predictions at once.
        vals = self._packed.tree_values(X)
        oob_sum = np.zeros(n)
        oob_count = np.zeros(n)
        for t in range(self.n_estimators):
            out_of_bag = np.flatnonzero(np.bincount(samples[t], minlength=n) == 0)
            if out_of_bag.size:
                oob_sum[out_of_bag] += vals[t, out_of_bag]
                oob_count[out_of_bag] += 1
        self._n_features = p
        with np.errstate(invalid="ignore", divide="ignore"):
            self._oob_prediction = np.where(oob_count > 0, oob_sum / oob_count, np.nan)
        total = importances.sum()
        self._importances = importances / total if total > 0 else importances
        self._y_train = y
        return self

    def _grow(
        self, X: np.ndarray, y: np.ndarray, n: int, p: int
    ) -> tuple[list[DecisionTreeRegressor], np.ndarray]:
        """Grow every tree, with the per-tree root argsorts batched into
        a single (T, n, p) stable sort — the forest-level half of the
        presorted split search."""
        factory = RngFactory("random-forest", seed=self.seed)
        params = self._tree_params()
        samples = np.stack(
            [
                factory.child("tree", t).integers(0, n, size=n)
                for t in range(self.n_estimators)
            ]
        )
        Xb = X[samples]  # (T, n, p) bootstrap designs
        if self.engine == "presort":
            root_sorted = np.argsort(Xb, axis=1, kind="stable")
        trees = []
        for t in range(self.n_estimators):
            tree = DecisionTreeRegressor(rng=factory.child("split", t), **params)
            tree._fit_arrays(
                Xb[t],
                y[samples[t]],
                root_sorted=root_sorted[t] if self.engine == "presort" else None,
            )
            trees.append(tree)
        return trees, samples

    def predict(self, X) -> np.ndarray:
        p = self._require_fitted()
        X = check_X(X, p)
        vals = self._tree_values(X)
        # Accumulate tree-by-tree in index order: the exact addition
        # sequence of the historical per-tree loop, so results stay
        # bit-identical to pre-packed forests.  The fused kernel replays
        # that order in C.
        mean = _native.ensemble_mean(vals)
        if mean is not None:
            return mean
        acc = np.zeros(X.shape[0])
        for t in range(vals.shape[0]):
            acc += vals[t]
        return acc / len(self.trees)

    def predict_std(self, X) -> np.ndarray:
        """Ensemble disagreement (std of per-tree predictions).

        The cheap epistemic-uncertainty estimate behind model-based
        search: high where the forest has seen little training data.
        """
        p = self._require_fitted()
        X = check_X(X, p)
        if self._packed is None:
            self._packed = PackedTrees(self.trees)
        return self._packed.values_std(X)

    def _tree_values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions via the packed traversal (scratch
        buffer reused — consume before the next prediction call)."""
        if self._packed is None:
            self._packed = PackedTrees(self.trees)
        return self._packed.tree_values(
            X, out=self._packed._values_scratch(X.shape[0])
        )

    # ------------------------------------------------------------------
    @staticmethod
    def diagnostics() -> dict:
        """Native-kernel probe outcome for this process (see
        :func:`repro.ml._native.diagnostics`): whether the compiled
        fit/predict kernels are in use and, if not, why the build
        failed.  A degraded forest still produces bit-identical results
        through the NumPy paths — this surfaces the *speed* regression."""
        return _native.diagnostics()

    @property
    def oob_prediction_(self) -> np.ndarray:
        """Per-training-row OOB prediction (NaN where always in-bag)."""
        self._require_fitted()
        assert self._oob_prediction is not None
        return self._oob_prediction

    def oob_score(self) -> float:
        """OOB R² over the rows that received at least one OOB vote."""
        from repro.ml.metrics import r2_score

        pred = self.oob_prediction_
        mask = np.isfinite(pred)
        if mask.sum() < 2:
            raise ModelError("too few OOB rows to compute a score; add trees")
        return r2_score(self._y_train[mask], pred[mask])

    @property
    def feature_importances_(self) -> np.ndarray:
        self._require_fitted()
        assert self._importances is not None
        return self._importances
