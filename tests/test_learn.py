import dataclasses

import numpy as np
import pytest

from conftest import make_epoch_set
from nirscope import learn
from nirscope.features import default_select_k, standardize
from nirscope.learn import (
    ClassifierSpec,
    FoldPlan,
    cross_validate,
    evaluate,
    fit,
    make_fold_plan,
    predict,
)


def _separable(n=40, gap=3.0, seed=0, d=2):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(-gap / 2, 0.5, size=(n // 2, d))
    x1 = rng.normal(gap / 2, 0.5, size=(n // 2, d))
    x = np.vstack([x0, x1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return x, y


# --- classifiers ---


def test_knn_k1_memorizes_training_points(monkeypatch):
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1])
    monkeypatch.setattr(learn, "_KNN_K", 1)
    model = fit(ClassifierSpec(kind="knn"), x, y)
    assert predict(model, x).tolist() == [0, 1]


def test_knn_scores_are_neighbor_fractions(monkeypatch):
    x = np.array([[0.0], [0.1], [0.2], [5.0], [5.1]])
    y = np.array([1, 1, 0, 0, 0])
    monkeypatch.setattr(learn, "_KNN_K", 3)
    model = fit(ClassifierSpec(kind="knn"), x, y)
    assert model.predict_score(np.array([[0.05]]))[0] == pytest.approx(2 / 3)


def test_knn_distance_ties_break_by_training_row_index(monkeypatch):
    x = np.array([[1.0], [-1.0], [1.0]])  # rows 0 and 2 identical
    y = np.array([1, 0, 0])
    monkeypatch.setattr(learn, "_KNN_K", 1)
    model = fit(ClassifierSpec(kind="knn"), x, y)
    # the query is equidistant to rows 0 and 2; row 0 wins
    assert predict(model, np.array([[1.0]]))[0] == 1


@pytest.mark.parametrize("k", [1, 3, 5, 12])
def test_knn_scores_equal_the_stable_sort_under_forced_ties(monkeypatch, k):
    # Points on a 5 x 5 grid: training rows repeat and many share a distance
    # to a query, so the k-th distance is often shared across the cut. The
    # last query is NaN, at the same distance from every row.
    rng = np.random.default_rng(k)
    x = rng.integers(-2, 3, size=(12, 2)).astype(float)
    y = np.array([0, 1] * 6)
    queries = np.vstack([rng.integers(-2, 3, size=(60, 2)).astype(float), [[np.nan, 0.0]]])
    monkeypatch.setattr(learn, "_KNN_K", k)
    model = fit(ClassifierSpec(kind="knn"), x, y)
    d2 = (queries**2).sum(axis=1)[:, None] + (x**2).sum(axis=1)[None, :] - 2.0 * queries @ x.T
    by_distance = np.sort(d2, axis=1)
    if k < len(x):
        assert np.sum(by_distance[:, k - 1] == by_distance[:, k]) > 10
    expected = y[np.argsort(d2, axis=1, kind="stable")[:, :k]].mean(axis=1)
    assert model.predict_score(queries).tobytes() == expected.tobytes()


def test_knn_invariant_to_training_row_permutation():
    rng = np.random.default_rng(4)
    x, y = _separable(n=30, gap=1.0, seed=4)
    test = rng.normal(size=(20, 2))
    base = fit(ClassifierSpec(kind="knn"), x, y).predict_score(test)
    perm = rng.permutation(len(y))
    permuted = fit(ClassifierSpec(kind="knn"), x[perm], y[perm]).predict_score(test)
    assert np.allclose(base, permuted)


def test_fully_grown_cart_fits_training_set():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 4))
    y = (rng.random(50) > 0.5).astype(int)
    if np.unique(y).size < 2:
        y[0] = 1 - y[0]
    tree = learn._grow_cart(x, y, np.random.default_rng(0), x.shape[1])
    assert (tree.predict(x) == y).all()


def test_single_tree_scores_are_zero_or_one():
    x, y = _separable(seed=2)
    tree = learn._grow_cart(x, y, np.random.default_rng(0), x.shape[1])
    assert set(np.round(tree.predict(x), 12)) <= {0.0, 1.0}


def test_forest_separates_separable_data():
    x, y = _separable(seed=3)
    model = fit(ClassifierSpec(kind="random_forest", seed=3), x, y)
    assert (predict(model, x) == y).mean() == 1.0


def test_svm_separable_training_accuracy():
    x, y = _separable(n=60, gap=4.0, seed=5)
    model = fit(ClassifierSpec(kind="linear_svm", seed=5), x, y)
    assert (predict(model, x) == y).mean() == 1.0


def test_gbdt_fits_and_scores_in_range(monkeypatch):
    x, y = _separable(n=50, gap=2.0, seed=6)
    monkeypatch.setattr(learn, "_GBDT_ROUNDS", 30)
    model = fit(ClassifierSpec(kind="boosted_trees"), x, y)
    assert (predict(model, x) == y).mean() >= 0.95
    scores = model.predict_score(x)
    assert scores.min() >= 0.0 and scores.max() <= 1.0


def test_scores_bounded_for_all_models_fuzz(monkeypatch):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 5))
    y = (rng.random(30) > 0.5).astype(int)
    y[:2] = [0, 1]
    queries = rng.normal(scale=10.0, size=(50, 5))
    monkeypatch.setattr(learn, "_RF_TREES", 10)
    monkeypatch.setattr(learn, "_GBDT_ROUNDS", 10)
    for kind in ("knn", "random_forest", "linear_svm", "boosted_trees"):
        model = fit(ClassifierSpec(kind=kind), x, y)
        s = model.predict_score(queries)
        assert np.all((s >= 0.0) & (s <= 1.0))


def test_svm_training_deterministic_given_seed():
    x, y = _separable(n=40, gap=1.0, seed=8)
    a = fit(ClassifierSpec(kind="linear_svm", seed=8), x, y)
    b = fit(ClassifierSpec(kind="linear_svm", seed=8), x, y)
    assert np.array_equal(a.w, b.w) and a.b == b.b
    c = fit(ClassifierSpec(kind="linear_svm", seed=9), x, y)
    assert not np.array_equal(a.w, c.w)


def test_fit_validation():
    x = np.ones((4, 2))
    with pytest.raises(ValueError, match="single class"):
        fit(ClassifierSpec(kind="knn"), x, np.zeros(4, dtype=int))
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        fit(ClassifierSpec(kind="knn"), bad, np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError):
        ClassifierSpec(kind="deep_net")
    with pytest.raises(ValueError, match="exceed 4 training rows"):
        fit(ClassifierSpec(kind="knn"), x, np.array([0, 1, 0, 1]))


def test_column_mismatch_rejected():
    x, y = _separable()
    model = fit(ClassifierSpec(kind="knn"), x, y)
    with pytest.raises(ValueError, match="columns"):
        predict(model, np.ones((3, 5)))


# --- metrics ---


def test_perfect_predictions_score_one():
    m = evaluate([0, 1, 0, 1], [0, 1, 0, 1])
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)


def test_all_control_on_balanced_fold():
    m = evaluate([0, 0, 1, 1], [0, 0, 0, 0])
    assert m.accuracy == 0.5
    assert m.recall == 0.5  # weighted recall equals accuracy


def test_metrics_match_hand_computed_confusion():
    # class 1: TP=3 FP=1 FN=2; class 0: TN=4
    y_true = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    y_pred = [1, 1, 1, 0, 0, 1, 0, 0, 0, 0]
    m = evaluate(y_true, y_pred)
    p1, r1 = 3 / 4, 3 / 5
    p0, r0 = 4 / 6, 4 / 5
    f1_1 = 2 * p1 * r1 / (p1 + r1)
    f1_0 = 2 * p0 * r0 / (p0 + r0)
    assert m.accuracy == pytest.approx(7 / 10)
    assert m.precision == pytest.approx(0.5 * p1 + 0.5 * p0)
    assert m.recall == pytest.approx(0.5 * r1 + 0.5 * r0)
    assert m.f1 == pytest.approx(0.5 * f1_1 + 0.5 * f1_0)
    assert m.recall == pytest.approx(m.accuracy)


def test_zero_denominator_classes_score_zero():
    m = evaluate([1, 1, 1], [0, 0, 0])
    assert m.accuracy == 0.0
    assert m.precision == 0.0
    assert m.f1 == 0.0


def test_evaluate_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        evaluate([], [])
    with pytest.raises(ValueError):
        evaluate([1, 0], [1])
    with pytest.raises(ValueError, match="binary"):
        evaluate([0, 2], [0, 1])


# --- fold planning ---


def _participants(n_pat, n_ctrl):
    return [(f"P{i:02d}", "patient") for i in range(n_pat)] + [
        (f"C{i:02d}", "control") for i in range(n_ctrl)
    ]


def test_balanced_24_gives_two_plus_two_folds():
    plan = make_fold_plan(_participants(12, 12), n_folds=6, seed=0)
    assert len(plan.folds) == 6
    for test_ids in plan.folds:
        pats = [p for p in test_ids if p.startswith("P")]
        ctrls = [p for p in test_ids if p.startswith("C")]
        assert len(pats) == 2 and len(ctrls) == 2
    tested = [p for test_ids in plan.folds for p in test_ids]
    assert sorted(tested) == sorted(p for p, _ in _participants(12, 12))


def test_unbalanced_13_11_fold_sizes():
    plan = make_fold_plan(_participants(13, 11), n_folds=6, seed=1)
    pat_sizes = sorted(sum(p.startswith("P") for p in test_ids) for test_ids in plan.folds)
    ctrl_sizes = sorted(sum(p.startswith("C") for p in test_ids) for test_ids in plan.folds)
    assert set(pat_sizes) <= {2, 3} and sum(pat_sizes) == 13
    assert set(ctrl_sizes) <= {1, 2} and sum(ctrl_sizes) == 11
    tested = [p for test_ids in plan.folds for p in test_ids]
    assert len(tested) == 24 and len(set(tested)) == 24


def test_too_few_participants_per_class_rejected():
    with pytest.raises(ValueError, match="fewer than"):
        make_fold_plan(_participants(5, 12), n_folds=6)


@pytest.mark.parametrize("n_folds", [1, 0, -1])
def test_fewer_than_two_folds_rejected(n_folds):
    with pytest.raises(ValueError, match=f"n_folds must be >= 2, got {n_folds}"):
        make_fold_plan(_participants(6, 6), n_folds=n_folds)


def test_fold_plan_rejects_overlap():
    with pytest.raises(ValueError, match="more than once"):
        FoldPlan(folds=(("A",), ("B", "A")))


def test_plan_deterministic_by_seed():
    a = make_fold_plan(_participants(12, 12), seed=5)
    b = make_fold_plan(_participants(12, 12), seed=5)
    c = make_fold_plan(_participants(12, 12), seed=6)
    assert a == b
    assert a != c


# --- cross-validation ---


def _cv_epochs(seed=0, n_participants=12, trials=4, window=12, n_channels=3):
    return make_epoch_set(
        n_participants=n_participants,
        trials=trials,
        window=window,
        n_channels=n_channels,
        seed=seed,
    )


def test_null_labels_give_chance_accuracy():
    # no group effect in the data: mean pooled accuracy over seeds near 0.5
    accs = []
    for seed in range(20):
        eps = _cv_epochs(seed=seed)
        plan = make_fold_plan(eps.participants, n_folds=3, seed=seed)
        cv = cross_validate(
            eps,
            "single",
            ClassifierSpec(kind="knn", seed=seed),
            plan,
            mode="raw",
            select_k=10,
        )
        accs.append(cv.pooled.accuracy)
    assert 0.35 <= float(np.mean(accs)) <= 0.65


def test_duplicated_trials_leave_metrics_unchanged(monkeypatch):
    eps = _cv_epochs(seed=3, trials=3)
    def twice(values):
        return tuple(v for v in values for _ in range(2))

    doubled = dataclasses.replace(
        eps,
        hemo=np.repeat(eps.hemo, 2, axis=0),
        participant_index=np.repeat(eps.participant_index, 2),
        tasks=twice(eps.tasks),
    )
    plan = make_fold_plan(eps.participants, n_folds=3, seed=3)
    monkeypatch.setattr(learn, "_GBDT_ROUNDS", 15)
    spec = ClassifierSpec(kind="boosted_trees", seed=3)
    base = cross_validate(eps, "single", spec, plan, select_k=8)
    doubled_cv = cross_validate(doubled, "single", spec, plan, select_k=8)
    assert doubled_cv.pooled == base.pooled


def test_default_select_k_keeps_every_column_when_there_are_fewer():
    # Two channels in summary mode give 16 columns, fewer than the default
    # 20 summary columns: every column is kept, as a run keeps them.
    eps = _cv_epochs(seed=2, n_channels=2)
    plan = make_fold_plan(eps.participants, n_folds=3, seed=2)
    spec = ClassifierSpec(kind="knn", seed=2)
    cv = cross_validate(eps, "single", spec, plan, mode="summary")
    assert cv.select_k == 16
    assert [fr.selected.size for fr in cv.folds] == [16] * 3


def test_raw_mode_trains_on_the_window_samples():
    # Two channels with 12-sample windows give 48 raw columns, of which the
    # default keeps 40; the mode is the string, and any other is refused.
    eps = _cv_epochs(seed=2, n_channels=2)
    plan = make_fold_plan(eps.participants, n_folds=3, seed=2)
    spec = ClassifierSpec(kind="knn", seed=2)
    cv = cross_validate(eps, "single", spec, plan, mode="raw")
    assert cv.mode == "raw" and cv.features.x.shape[1] == 48
    assert cv.select_k == default_select_k("raw", 48) == 40
    assert [fr.selected.size for fr in cv.folds] == [40] * 3
    with pytest.raises(ValueError, match=r"one of \['raw', 'summary'\], got 'Raw'"):
        cross_validate(eps, "single", spec, plan, mode="Raw")


def test_single_class_training_fold_rejected():
    eps = _cv_epochs(seed=5, n_participants=4)
    # test both controls, which leaves only patients in training
    plan = FoldPlan(folds=(("X02", "X03"),))
    with pytest.raises(ValueError, match="single class"):
        cross_validate(eps, "single", ClassifierSpec(kind="knn"), plan, select_k=5)


def test_no_participant_overlap_enforced_structurally():
    # A fold tests exactly its participants' trials and trains on exactly
    # everyone else's.
    eps = _cv_epochs(seed=6)
    plan = make_fold_plan(eps.participants, n_folds=3, seed=6)
    cv = cross_validate(eps, "single", ClassifierSpec(kind="knn", seed=6), plan, select_k=5)
    pids = np.array(cv.features.participant_ids)
    for fr, test_ids in zip(cv.folds, plan.folds):
        tested = np.isin(pids, test_ids)
        assert set(pids[tested]) == set(test_ids)
        columns = cv.features.x[:, fr.selected]
        train_x, test_x, _, _ = standardize(columns[~tested], columns[tested])
        assert np.array_equal(fr.train_x, train_x) and np.array_equal(fr.test_x, test_x)
    # A plan that names a participant the epochs do not have is refused.
    unknown = FoldPlan(folds=(plan.folds[0][:-1] + ("ZZZ",), *plan.folds[1:]))
    with pytest.raises(ValueError, match=r"do not have: \['ZZZ'\]"):
        cross_validate(eps, "single", ClassifierSpec(kind="knn", seed=6), unknown, select_k=5)


def test_selection_and_scaling_ignore_test_rows():
    # perturbing test participants' trials must not change selected features
    # or scaler statistics (leakage check)
    eps = _cv_epochs(seed=7)
    plan = make_fold_plan(eps.participants, n_folds=3, seed=7)
    cv1 = cross_validate(eps, "single", ClassifierSpec(kind="knn", seed=7), plan, select_k=6)

    in_test = np.isin(eps.participant_ids, plan.folds[0])[:, None, None, None]
    shift = np.array([100.0, -50.0])[:, None, None]  # hbo up, hbr down
    perturbed = dataclasses.replace(eps, hemo=eps.hemo + shift * in_test)
    cv2 = cross_validate(
        perturbed, "single", ClassifierSpec(kind="knn", seed=7), plan, select_k=6
    )
    assert np.array_equal(cv1.folds[0].selected, cv2.folds[0].selected)
    assert np.array_equal(cv1.folds[0].scaler_mean, cv2.folds[0].scaler_mean)
    assert np.array_equal(cv1.folds[0].scaler_std, cv2.folds[0].scaler_std)


def test_cross_validation_deterministic(monkeypatch):
    eps = _cv_epochs(seed=8)
    plan = make_fold_plan(eps.participants, n_folds=3, seed=8)
    monkeypatch.setattr(learn, "_RF_TREES", 20)
    spec = ClassifierSpec(kind="random_forest", seed=8)
    a = cross_validate(eps, "single", spec, plan, select_k=6)
    b = cross_validate(eps, "single", spec, plan, select_k=6)
    assert a.pooled == b.pooled
    for fa, fb in zip(a.folds, b.folds):
        assert np.array_equal(fa.test_pred, fb.test_pred)


def test_positive_feature_scaling_is_absorbed_by_standardization():
    eps = _cv_epochs(seed=9)
    scaled = dataclasses.replace(eps, hemo=37.0 * eps.hemo)
    plan = make_fold_plan(eps.participants, n_folds=3, seed=9)
    spec = ClassifierSpec(kind="knn", seed=9)
    base = cross_validate(eps, "single", spec, plan, select_k=6)
    scl = cross_validate(scaled, "single", spec, plan, select_k=6)
    for fa, fb in zip(base.folds, scl.folds):
        assert np.array_equal(fa.test_pred, fb.test_pred)
    assert base.pooled == scl.pooled


# --- tree code against one-at-a-time references ---
#
# Reference implementations: a per-tree walk with a boolean mask of the rows
# still at an inner node, a per-feature Gini search, and a boosting grower
# that rescans every open leaf before each split.


def _reference_predict(tree, x):
    node = np.zeros(x.shape[0], dtype=int)
    active = tree.feature[node] >= 0
    while active.any():
        f = tree.feature[node[active]]
        thr = tree.threshold[node[active]]
        go_left = x[active, f] <= thr
        nxt = np.where(go_left, tree.left[node[active]], tree.right[node[active]])
        node[active] = nxt
        active = tree.feature[node] >= 0
    return tree.value[node]


def _reference_gini_split(x, y, features):
    n = y.size
    best = None
    for f in features:
        v = x[:, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = y[order]
        ones = np.cumsum(ys)
        total_ones = ones[-1]
        i = np.arange(1, n)
        valid = vs[1:] > vs[:-1]
        if not valid.any():
            continue
        left_ones = ones[:-1]
        right_ones = total_ones - left_ones
        left_n = i.astype(float)
        right_n = (n - i).astype(float)
        gini_l = 1.0 - (left_ones / left_n) ** 2 - (1 - left_ones / left_n) ** 2
        gini_r = 1.0 - (right_ones / right_n) ** 2 - (1 - right_ones / right_n) ** 2
        cost = left_n * gini_l + right_n * gini_r
        cost[~valid] = np.inf
        j = int(np.argmin(cost))
        if best is None or cost[j] < best[2]:
            best = (int(f), 0.5 * (vs[j] + vs[j + 1]), float(cost[j]))
    return best


def _reference_grow_boost_tree(binned, g, h, n_bins, max_leaves):
    feature, split_bin, left, right, value = [], [], [], [], []

    def new_node(rows):
        idx = len(feature)
        feature.append(-1)
        split_bin.append(0)
        left.append(-1)
        right.append(-1)
        value.append(-g[rows].sum() / h[rows].sum())
        return idx

    root_rows = np.arange(binned.shape[0])
    open_leaves = {new_node(root_rows): root_rows}
    n_leaves = 1
    while n_leaves < max_leaves and open_leaves:
        best = None
        for node_idx, rows in open_leaves.items():
            if rows.size < 2:
                continue
            split = learn._leaf_best_split(binned, g, h, rows, n_bins)
            if split is not None and (best is None or split[0] > best[1][0]):
                best = (node_idx, split)
        if best is None:
            break
        node_idx, (_, f, b, rows_l, rows_r) = best
        del open_leaves[node_idx]
        feature[node_idx] = f
        split_bin[node_idx] = b
        li = new_node(rows_l)
        ri = new_node(rows_r)
        left[node_idx] = li
        right[node_idx] = ri
        open_leaves[li] = rows_l
        open_leaves[ri] = rows_r
        n_leaves += 1
    tree = learn._Tree(
        feature=np.asarray(feature),
        threshold=np.asarray(split_bin),
        left=np.asarray(left),
        right=np.asarray(right),
        value=np.asarray(value),
    )
    return tree, list(open_leaves.items())


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def _tree_data(case, seed):
    """(x, y, queries) for one data case."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(60, 9))
    queries = rng.normal(size=(150, 9))
    if case == "ties":
        x, queries = np.round(x), np.round(queries)
    elif case == "constant":
        x[:, [0, 4, 8]] = 2.0
        queries[:, 0] = 2.0
    y = (x[:, 1] + x[:, 2] + rng.normal(scale=0.7, size=60) > 0).astype(int)
    if case == "one_positive":
        # most bootstrap draws miss the single positive row: pure-class trees
        y = np.zeros(60, dtype=int)
        y[7] = 1
    return x, y, queries


TREE_CASES = ("random", "ties", "constant", "one_positive")


def _assert_same_trees(a, b):
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(ta, name), getattr(tb, name)), name


@pytest.mark.parametrize("case", TREE_CASES)
@pytest.mark.parametrize("seed", [1, 3])
def test_forest_walk_matches_mask_loop(monkeypatch, case, seed):
    x, y, queries = _tree_data(case, seed=seed)
    monkeypatch.setattr(learn, "_RF_TREES", 25)
    spec = ClassifierSpec(kind="random_forest", seed=5)
    model = fit(spec, x, y)
    if case == "one_positive":
        assert min(t.depth for t in model.trees) == 0
    rows = np.vstack([x, queries])
    votes = np.zeros(rows.shape[0])
    for tree in model.trees:
        reference = _reference_predict(tree, rows)
        assert np.array_equal(tree.predict(rows), reference)
        votes += reference
    assert np.array_equal(model.predict_score(rows), votes / len(model.trees))


def test_tree_walk_blocks_rows(monkeypatch):
    x, y, queries = _tree_data("random", seed=2)
    monkeypatch.setattr(learn, "_RF_TREES", 7)
    monkeypatch.setattr(learn, "_GBDT_ROUNDS", 7)
    forest = fit(ClassifierSpec(kind="random_forest"), x, y)
    boost = fit(ClassifierSpec(kind="boosted_trees"), x, y)
    whole = forest.predict_score(queries), boost.predict_score(queries)
    monkeypatch.setattr(learn, "_WALK_CELLS", 50)  # blocks of 7 rows
    assert np.array_equal(forest.predict_score(queries), whole[0])
    assert np.array_equal(boost.predict_score(queries), whole[1])


@pytest.mark.parametrize("case", TREE_CASES)
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_gini_split_matches_per_feature_search(case, seed):
    x, y, _ = _tree_data(case, seed=10 + seed)
    rng = np.random.default_rng(seed)
    for _ in range(40):
        rows = rng.choice(x.shape[0], size=int(rng.integers(2, 40)), replace=False)
        features = np.sort(rng.choice(x.shape[1], size=int(rng.integers(1, 10)), replace=False))
        got = learn._best_gini_split(x[rows], y[rows], features)
        assert got == _reference_gini_split(x[rows], y[rows], features)


@pytest.mark.parametrize("case", TREE_CASES)
@pytest.mark.parametrize("seed", [1, 3])
def test_forest_grows_as_with_per_feature_search(monkeypatch, case, seed):
    x, y, _ = _tree_data(case, seed=20 + seed)
    monkeypatch.setattr(learn, "_RF_TREES", 15)
    spec = ClassifierSpec(kind="random_forest", seed=1)
    model = fit(spec, x, y)
    monkeypatch.setattr(learn, "_best_gini_split", _reference_gini_split)
    _assert_same_trees(model.trees, fit(spec, x, y).trees)


@pytest.mark.parametrize("case", TREE_CASES)
@pytest.mark.parametrize("bins", [4, 64])
def test_boosting_matches_rescanning_grower(monkeypatch, case, bins):
    x, y, queries = _tree_data(case, seed=30 + bins)
    monkeypatch.setattr(learn, "_GBDT_ROUNDS", 20)
    monkeypatch.setattr(learn, "_GBDT_BINS", bins)
    spec = ClassifierSpec(kind="boosted_trees", seed=2)
    model = fit(spec, x, y)
    binned = model.leaf_input(np.vstack([x, queries]))
    score = np.full(binned.shape[0], model.base_score)
    for tree in model.trees:
        reference = _reference_predict(tree, binned)
        assert np.array_equal(tree.predict(binned), reference)
        score += model.learning_rate * reference
    assert np.array_equal(model._leaf_total(np.vstack([x, queries])), score)
    monkeypatch.setattr(learn, "_grow_boost_tree", _reference_grow_boost_tree)
    _assert_same_trees(model.trees, fit(spec, x, y).trees)


def test_boosting_gain_ties_go_to_the_earliest_leaf(monkeypatch):
    # Column 0 splits the rows into two halves whose labels are each other's
    # flip. With p = 0.5 the gradients are +-0.5 and the hessians 0.25, so
    # after the root split both children offer exactly the same best gain;
    # the child created first must be split first.
    x1 = np.arange(6.0)
    x = np.column_stack([np.repeat([0.0, 1.0], 6), np.tile(x1, 2)])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0])
    monkeypatch.setattr(learn, "_GBDT_ROUNDS", 2)
    monkeypatch.setattr(learn, "_GBDT_MAX_LEAVES", 3)
    monkeypatch.setattr(learn, "_GBDT_BINS", 8)
    spec = ClassifierSpec(kind="boosted_trees")
    model = fit(spec, x, y)
    first = model.trees[0]
    assert first.feature[0] == 0 and first.left[0] == 1
    assert first.feature[1] == 1 and first.feature[2] == -1
    monkeypatch.setattr(learn, "_grow_boost_tree", _reference_grow_boost_tree)
    _assert_same_trees(model.trees, fit(spec, x, y).trees)


def test_boost_grower_finds_each_leaf_split_once(monkeypatch):
    calls = []
    original = learn._leaf_best_split

    def counted(binned, g, h, rows, n_bins):
        calls.append(rows.size)
        return original(binned, g, h, rows, n_bins)

    monkeypatch.setattr(learn, "_leaf_best_split", counted)
    x, y, _ = _tree_data("random", seed=4)
    monkeypatch.setattr(learn, "_GBDT_ROUNDS", 5)
    monkeypatch.setattr(learn, "_GBDT_MAX_LEAVES", 8)
    model = fit(ClassifierSpec(kind="boosted_trees"), x, y)
    assert len(calls) == sum(t.feature.size for t in model.trees)
