"""Bit-identity of the optimized ML engines against the legacy ones.

The presorted split search, the packed (and optionally compiled) forest
traversal, parallel tree fitting, and the batched OOB bookkeeping are
all pure performance work: for any fixed seed they must produce the
same trees, predictions, and diagnostics as the legacy implementations
— not merely close, identical to the last bit.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml import _native
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import PackedTrees, RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor

TREE_FIELDS = ("feature", "threshold", "left", "right", "value", "n_samples", "impurity")


def regression_data(n=150, p=6, seed=0, discrete=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n) + 2.0 * X[:, 0] - X[:, 1] ** 2
    if discrete:  # repeated target values stress purity/tie handling
        y = np.round(y, 1)
    return X, y


def assert_trees_identical(a: DecisionTreeRegressor, b: DecisionTreeRegressor):
    for field in TREE_FIELDS:
        np.testing.assert_array_equal(
            getattr(a.nodes, field), getattr(b.nodes, field), err_msg=field
        )


class TestTreeEngines:
    @pytest.mark.parametrize("discrete", [False, True])
    @pytest.mark.parametrize("max_features", [None, "sqrt", "third", 2])
    def test_identical_trees(self, max_features, discrete):
        X, y = regression_data(discrete=discrete)
        trees = [
            DecisionTreeRegressor(
                min_samples_leaf=2,
                max_features=max_features,
                rng=np.random.default_rng(7),
                engine=engine,
            ).fit(X, y)
            for engine in ("legacy", "presort")
        ]
        assert_trees_identical(*trees)
        Xq = regression_data(seed=1)[0]
        np.testing.assert_array_equal(trees[0].predict(Xq), trees[1].predict(Xq))

    @pytest.mark.parametrize("max_depth", [0, 1, 3])
    def test_identical_with_depth_limits(self, max_depth):
        X, y = regression_data(n=60)
        trees = [
            DecisionTreeRegressor(max_depth=max_depth, engine=engine).fit(X, y)
            for engine in ("legacy", "presort")
        ]
        assert_trees_identical(*trees)

    def test_constant_target(self):
        X, _ = regression_data(n=40)
        y = np.full(40, 0.1)
        for engine in ("legacy", "presort"):
            tree = DecisionTreeRegressor(engine=engine).fit(X, y)
            assert tree.n_leaves == 1

    def test_tiny_node_sizes(self):
        # Exercises the scalar-statistics path (nodes below the
        # pairwise-summation cutoff) on both sides of every split.
        X, y = regression_data(n=9)
        trees = [
            DecisionTreeRegressor(engine=engine).fit(X, y)
            for engine in ("legacy", "presort")
        ]
        assert_trees_identical(*trees)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ModelError):
            DecisionTreeRegressor(engine="turbo")

    def test_depth_matches_node_walk(self):
        X, y = regression_data()
        tree = DecisionTreeRegressor(min_samples_leaf=2).fit(X, y)

        def node_depth(node, d=0):
            if tree.nodes.feature[node] == -1:
                return d
            return max(
                node_depth(int(tree.nodes.left[node]), d + 1),
                node_depth(int(tree.nodes.right[node]), d + 1),
            )

        assert tree.depth == node_depth(0)


class TestForestEquivalence:
    @pytest.mark.parametrize("max_features", [None, "third"])
    def test_identical_forests(self, max_features):
        X, y = regression_data()
        legacy = RandomForestRegressor(
            n_estimators=12, max_features=max_features, seed=3, engine="legacy"
        ).fit(X, y)
        fast = RandomForestRegressor(
            n_estimators=12, max_features=max_features, seed=3
        ).fit(X, y)
        for a, b in zip(legacy.trees, fast.trees):
            assert_trees_identical(a, b)
        Xq = regression_data(seed=1)[0]
        np.testing.assert_array_equal(legacy.predict(Xq), fast.predict(Xq))
        np.testing.assert_array_equal(legacy.predict_std(Xq), fast.predict_std(Xq))
        np.testing.assert_array_equal(
            legacy.oob_prediction_, fast.oob_prediction_
        )
        np.testing.assert_array_equal(
            legacy.feature_importances_, fast.feature_importances_
        )

    def test_packed_matches_per_tree_loop(self):
        X, y = regression_data()
        forest = RandomForestRegressor(n_estimators=8, seed=0).fit(X, y)
        Xq = regression_data(seed=2)[0]
        stacked = np.stack([tree.predict(Xq) for tree in forest.trees])
        np.testing.assert_array_equal(
            PackedTrees(forest.trees).tree_values(Xq), stacked
        )
        np.testing.assert_array_equal(forest.predict_std(Xq), stacked.std(axis=0))

    def test_numpy_fallback_matches_native(self, monkeypatch):
        X, y = regression_data()
        forest = RandomForestRegressor(n_estimators=8, seed=0).fit(X, y)
        Xq = regression_data(seed=2)[0]
        with_native = forest._packed.tree_values(Xq)
        std_native = forest.predict_std(Xq)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert not _native.available()
        without = forest._packed.tree_values(Xq)
        np.testing.assert_array_equal(with_native, without)
        np.testing.assert_array_equal(std_native, forest.predict_std(Xq))

    def test_fused_std_matches_numpy_std(self):
        # The compiled ensemble_std replays NumPy's sequential axis-0
        # reduction order; results must be identical to the last bit.
        rng = np.random.default_rng(9)
        for n_trees, n in [(1, 50), (7, 333), (64, 500)]:
            vals = rng.normal(size=(n_trees, n)) * 37.0
            std = _native.ensemble_std(vals)
            if std is None:  # no compiler on this host
                pytest.skip("native kernel unavailable")
            np.testing.assert_array_equal(std, vals.std(axis=0))

    def test_scratch_reuse_keeps_results_fresh(self):
        # Internal prediction paths share one output buffer; successive
        # calls with different inputs must still return correct values.
        X, y = regression_data()
        forest = RandomForestRegressor(n_estimators=8, seed=0).fit(X, y)
        Xa = regression_data(seed=2)[0]
        Xb = regression_data(seed=3)[0]
        pa, sa = forest.predict(Xa), forest.predict_std(Xa)
        forest.predict(Xb), forest.predict_std(Xb)
        np.testing.assert_array_equal(forest.predict(Xa), pa)
        np.testing.assert_array_equal(forest.predict_std(Xa), sa)

    def test_oob_single_tree_leaves_inbag_nan(self):
        X, y = regression_data(n=40)
        forest = RandomForestRegressor(n_estimators=1, seed=0).fit(X, y)
        pred = forest.oob_prediction_
        assert np.isnan(pred).any() and np.isfinite(pred).any()

    def test_oob_score_matches_legacy(self):
        X, y = regression_data()
        legacy = RandomForestRegressor(n_estimators=16, seed=2, engine="legacy").fit(X, y)
        fast = RandomForestRegressor(n_estimators=16, seed=2).fit(X, y)
        assert legacy.oob_score() == fast.oob_score()


class TestBoostingEquivalence:
    @pytest.mark.parametrize("subsample", [1.0, 0.7])
    def test_identical_models(self, subsample):
        X, y = regression_data()
        legacy = GradientBoostingRegressor(
            n_estimators=30, subsample=subsample, seed=4, engine="legacy"
        ).fit(X, y)
        fast = GradientBoostingRegressor(
            n_estimators=30, subsample=subsample, seed=4
        ).fit(X, y)
        for a, b in zip(legacy.trees, fast.trees):
            assert_trees_identical(a, b)
        Xq = regression_data(seed=5)[0]
        np.testing.assert_array_equal(legacy.predict(Xq), fast.predict(Xq))
        np.testing.assert_array_equal(
            legacy.staged_predict(Xq), fast.staged_predict(Xq)
        )

    def test_packed_predict_matches_tree_loop(self):
        X, y = regression_data()
        model = GradientBoostingRegressor(n_estimators=20, seed=0).fit(X, y)
        Xq = regression_data(seed=6)[0]
        manual = np.full(Xq.shape[0], model._base)
        for tree in model.trees:
            manual += model.learning_rate * tree.predict(Xq)
        np.testing.assert_array_equal(model.predict(Xq), manual)
