import numpy as np
import pytest

from conftest import make_epoch_set
from nirscope import explain, learn
from nirscope.explain import (
    ChannelImportance,
    attribute_cross_validation,
    build_background,
    channel_importance,
    exact_shapley,
    kernel_shap,
)
from nirscope.learn import ClassifierSpec, cross_validate, make_fold_plan


def _linear(w):
    w = np.asarray(w, dtype=float)
    return lambda x: np.asarray(x) @ w


def _random_model(rng, d):
    w = rng.normal(size=d)
    v = rng.normal(size=d)
    b = float(rng.normal())

    def score(x):
        x = np.atleast_2d(x)
        return np.tanh(x @ w) + (x @ v) ** 2 * 0.1 + b

    return score


def test_additive_model_closed_form_exact():
    rng = np.random.default_rng(0)
    w = rng.normal(size=6)
    bg = rng.normal(size=(10, 6))
    inst = rng.normal(size=6)
    att = exact_shapley(_linear(w), bg, inst)
    expected = w * (inst - bg.mean(axis=0))
    assert np.allclose(att.phi, expected, atol=1e-12)


def test_symmetric_features_get_equal_phi():
    def score(x):
        x = np.atleast_2d(x)
        return x[:, 0] + x[:, 1] + 0.5 * x[:, 0] * x[:, 1]

    bg = np.zeros((4, 2))
    inst = np.array([1.3, 1.3])
    att = exact_shapley(score, bg, inst)
    assert att.phi[0] == pytest.approx(att.phi[1], rel=1e-12)


def test_efficiency_axiom_random_models():
    rng = np.random.default_rng(1)
    for _ in range(10):
        score = _random_model(rng, 5)
        bg = rng.normal(size=(8, 5))
        inst = rng.normal(size=5)
        att = exact_shapley(score, bg, inst)
        total = float(score(inst[None, :])[0])
        assert att.phi.sum() + att.base_value == pytest.approx(total, abs=1e-9)


def test_null_player_gets_zero():
    rng = np.random.default_rng(2)
    w = rng.normal(size=5)
    w[2] = 0.0

    def score(x):
        x = np.atleast_2d(x)
        return np.tanh(x[:, [0, 1, 3, 4]] @ w[[0, 1, 3, 4]])

    bg = rng.normal(size=(6, 5))
    inst = rng.normal(size=5)
    att = exact_shapley(score, bg, inst)
    assert abs(att.phi[2]) < 1e-9


def test_exact_matches_permutation_definition():
    # independent oracle: average marginal contribution over all orderings
    from itertools import permutations

    rng = np.random.default_rng(15)
    n = 5
    score = _random_model(rng, n)
    bg = rng.normal(size=(3, n))
    inst = rng.normal(size=n)

    def v(members):
        comp = bg.copy()
        for g in members:
            comp[:, g] = inst[g]
        return float(np.mean(score(comp)))

    phi = np.zeros(n)
    perms = list(permutations(range(n)))
    for perm in perms:
        before: list[int] = []
        v_before = v(before)
        for g in perm:
            v_with = v(before + [g])
            phi[g] += v_with - v_before
            before.append(g)
            v_before = v_with
    phi /= len(perms)
    ours = exact_shapley(score, bg, inst).phi
    assert np.allclose(ours, phi, atol=1e-12)


def test_grouped_features_attribute_jointly():
    rng = np.random.default_rng(3)
    w = rng.normal(size=4)
    bg = rng.normal(size=(5, 4))
    inst = rng.normal(size=4)
    att = exact_shapley(_linear(w), bg, inst, groups=[[0, 1], [2, 3]])
    expected = w * (inst - bg.mean(axis=0))
    assert att.phi[0] == pytest.approx(expected[0] + expected[1], rel=1e-9)
    assert att.phi[1] == pytest.approx(expected[2] + expected[3], rel=1e-9)


def test_exact_shapley_validation():
    score = _linear([1.0, 1.0])
    with pytest.raises(ValueError, match="empty"):
        exact_shapley(score, np.empty((0, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="cap"):
        exact_shapley(
            _linear(np.ones(21)), np.zeros((1, 21)), np.zeros(21)
        )
    with pytest.raises(ValueError, match="overlap"):
        exact_shapley(score, np.zeros((1, 2)), np.zeros(2), groups=[[0], [0, 1]])


def test_kernel_full_enumeration_matches_exact():
    rng = np.random.default_rng(4)
    for n in (3, 6, 8):
        score = _random_model(rng, n)
        bg = rng.normal(size=(6, n))
        inst = rng.normal(size=n)
        exact = exact_shapley(score, bg, inst)
        kernel = kernel_shap(score, bg, inst, n_samples=2**n, seed=0)
        assert np.allclose(kernel.phi, exact.phi, atol=1e-6)


def test_kernel_full_enumeration_matches_exact_with_groups():
    rng = np.random.default_rng(14)
    score = _random_model(rng, 9)
    bg = rng.normal(size=(5, 9))
    inst = rng.normal(size=9)
    groups = [[0, 1], [2], [3, 4, 5], [6], [7, 8]]
    exact = exact_shapley(score, bg, inst, groups=groups)
    kernel = kernel_shap(score, bg, inst, groups=groups, n_samples=2 ** len(groups), seed=3)
    assert np.allclose(kernel.phi, exact.phi, atol=1e-6)


def test_kernel_full_enumeration_matches_exact_with_ungrouped_columns():
    # Column 3 is in no group and stays at its background values, so v(N) is
    # the full coalition's value, not the instance's score.
    rng = np.random.default_rng(0)
    score = _random_model(rng, 4)
    bg = rng.normal(size=(5, 4))
    inst = rng.normal(size=4)
    groups = [[0], [1], [2]]
    exact = exact_shapley(score, bg, inst, groups=groups)
    kernel = kernel_shap(score, bg, inst, groups=groups, n_samples=64, seed=0)
    assert kernel.base_value == pytest.approx(exact.base_value, abs=1e-12)
    assert np.allclose(kernel.phi, exact.phi, atol=1e-10)
    # One group takes no regression: phi is v(N) - v(∅).
    one = kernel_shap(score, bg, inst, groups=[[0, 1]])
    assert one.phi == pytest.approx(exact_shapley(score, bg, inst, groups=[[0, 1]]).phi, abs=1e-12)


def test_kernel_additive_matches_closed_form():
    rng = np.random.default_rng(5)
    w = rng.normal(size=7)
    bg = rng.normal(size=(9, 7))
    inst = rng.normal(size=7)
    att = kernel_shap(_linear(w), bg, inst, n_samples=80, seed=1)
    expected = w * (inst - bg.mean(axis=0))
    assert np.allclose(att.phi, expected, atol=1e-6)


def test_kernel_minimum_sample_budget():
    with pytest.raises(ValueError, match="n_samples"):
        kernel_shap(_linear(np.ones(6)), np.zeros((2, 6)), np.ones(6), n_samples=10)


def test_kernel_deterministic_given_seed():
    rng = np.random.default_rng(6)
    score = _random_model(rng, 9)
    bg = rng.normal(size=(5, 9))
    inst = rng.normal(size=9)
    a = kernel_shap(score, bg, inst, n_samples=40, seed=7)
    b = kernel_shap(score, bg, inst, n_samples=40, seed=7)
    assert np.array_equal(a.phi, b.phi)


def test_kernel_error_shrinks_as_samples_double():
    # mean |phi_kernel - phi_exact| decreases in expectation with the budget
    rng = np.random.default_rng(8)
    n = 8
    budgets = (24, 48, 96, 192)
    errors = {b: [] for b in budgets}
    for trial in range(6):
        score = _random_model(rng, n)
        bg = rng.normal(size=(4, n))
        inst = rng.normal(size=n)
        exact = exact_shapley(score, bg, inst)
        for b in budgets:
            for seed in range(3):
                k = kernel_shap(score, bg, inst, n_samples=b, seed=seed)
                errors[b].append(np.mean(np.abs(k.phi - exact.phi)))
    means = [float(np.mean(errors[b])) for b in budgets]
    assert all(a >= b * 0.9 for a, b in zip(means, means[1:]))  # monotone within slack
    assert means[-1] < means[0]


def test_kernel_efficiency_is_exact():
    rng = np.random.default_rng(9)
    score = _random_model(rng, 10)
    bg = rng.normal(size=(6, 10))
    inst = rng.normal(size=10)
    att = kernel_shap(score, bg, inst, n_samples=30, seed=2)
    full = float(np.mean(score(inst[None, :])))
    assert att.phi.sum() + att.base_value == pytest.approx(full, abs=1e-9)


# --- channel importance ---


def test_single_attribution_singleton_groups():
    imp = channel_importance(np.array([[0.5, -1.5]]), [("A", "hbo"), ("B", "hbr")])
    assert imp.entries[0] == ("B", "hbr", 1.5)
    assert imp.entries[1] == ("A", "hbo", 0.5)


def test_zero_attributions_rank_by_label():
    keys = [("C", "hbo"), ("A", "hbr"), ("B", "hbo")]
    imp = channel_importance(np.zeros((1, 3)), keys)
    assert [e[:2] for e in imp.entries] == [("A", "hbr"), ("B", "hbo"), ("C", "hbo")]
    assert all(e[2] == 0.0 for e in imp.entries)


def test_importance_averages_absolute_values_over_trials():
    keys = [("A", "hbo"), ("B", "hbr")]
    phi = np.array([[1.0, 0.5], [-2.0, 1.5]])
    imp = channel_importance(phi, keys)
    # A hbo: (|1| + |-2|) / 2 = 1.5 ; B hbr: (0.5 + 1.5) / 2 = 1.0
    assert imp.entries == (("A", "hbo", 1.5), ("B", "hbr", 1.0))


def test_importance_sums_trials_left_to_right():
    # 1.0 + 2**-53 rounds back to 1.0 at every step; a sum that adds the
    # small values first (pairwise, or from the end) would exceed 1.0.
    column = [1.0] + [2.0**-53] * 16
    total = 0.0
    for value in column:
        total += value
    assert total == 1.0
    imp = channel_importance(np.array(column)[:, None], [("A", "hbo")])
    assert imp.entries == (("A", "hbo", total / len(column)),)
    assert total / len(column) != sum(column[::-1]) / len(column)


def test_importance_refuses_duplicate_keys():
    with pytest.raises(ValueError, match="each pair once"):
        channel_importance(np.ones((2, 3)), [("A", "hbo"), ("A", "hbo"), ("B", "hbr")])


def test_importance_refuses_columns_other_than_keys():
    with pytest.raises(ValueError, match="do not match group keys"):
        channel_importance(np.ones((2, 3)), [("A", "hbo"), ("B", "hbr")])


def test_top_returns_at_most_n_nonzero_pairs():
    imp = ChannelImportance(
        entries=(("B", "hbr", 1.5), ("A", "hbo", 0.5), ("A", "hbr", 0.0), ("C", "hbo", 0.0))
    )
    assert imp.top(3) == (("B", "hbr", 1.5), ("A", "hbo", 0.5))
    assert imp.top(1) == (("B", "hbr", 1.5),)
    none = ChannelImportance(entries=(("A", "hbo", 0.0), ("B", "hbr", 0.0)))
    assert none.top(4) == ()


def test_ranking_invariant_under_positive_score_scaling():
    rng = np.random.default_rng(10)
    score = _random_model(rng, 6)
    bg = rng.normal(size=(5, 6))
    keys = [(f"C{i}", "hbo") for i in range(6)]
    insts = rng.normal(size=(4, 6))
    phi = np.array([exact_shapley(score, bg, x).phi for x in insts])
    scaled = np.array([exact_shapley(lambda z: 7.0 * score(z), bg, x).phi for x in insts])
    base_rank = [e[:2] for e in channel_importance(phi, keys).entries]
    scaled_rank = [e[:2] for e in channel_importance(scaled, keys).entries]
    assert base_rank == scaled_rank


def test_importance_requires_attributions():
    for empty in ([], np.zeros((0, 0))):
        with pytest.raises(ValueError, match="no attributions"):
            channel_importance(empty, [])


def test_importance_validates_ordering():
    with pytest.raises(ValueError, match="descending"):
        ChannelImportance(entries=(("A", "hbo", 0.1), ("B", "hbr", 0.5)))
    with pytest.raises(ValueError, match="nonnegative"):
        ChannelImportance(entries=(("A", "hbo", -0.1),))


# --- background and grouping helpers ---


def test_background_contains_mean_and_strided_rows(monkeypatch):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(40, 3))
    monkeypatch.setattr(explain, "_BACKGROUND_ROWS", 5)
    bg = build_background(x)
    assert bg.shape[1] == 3
    assert np.allclose(bg[0], x.mean(axis=0))
    assert bg.shape[0] <= 6
    assert all(any(np.allclose(row, xr) for xr in x) for row in bg[1:])


def test_background_deterministic():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(25, 4))
    assert np.array_equal(build_background(x), build_background(x))


# --- per-fold attribution against the per-row functions ---


# Channel ids whose montage order is not their label order: "S10-D1" sorts
# before "S2-D1".
LABEL_ORDER_IDS = tuple(f"{s}-D1" for s in ("S3", "S12", "S1", "S10", "S2", "S11", "S9"))
# (select_k, channel ids): at most 6 groups take the exact path; at least 15
# of 8 channels' 16 pairs, or all 14 of 7 channels', take the kernel path.
CV_CASES = [
    pytest.param(6, None, id="6"),
    pytest.param(60, None, id="60"),
    pytest.param(6, LABEL_ORDER_IDS, id="6-label-order"),
    pytest.param(56, LABEL_ORDER_IDS, id="56-label-order"),
]


def _small_cv(monkeypatch, kind, select_k, channel_ids=None):
    """Six participants, 8 channels by default: 16 (channel, chromophore) groups."""
    eps = make_epoch_set(n_participants=6, trials=3, n_channels=8, channel_ids=channel_ids, seed=3)
    plan = make_fold_plan(eps.participants, n_folds=3, seed=1)
    monkeypatch.setattr(learn, "_RF_TREES", 10)
    monkeypatch.setattr(learn, "_SVM_EPOCHS", 20)
    monkeypatch.setattr(learn, "_GBDT_ROUNDS", 10)
    spec = ClassifierSpec(kind=kind, seed=2)
    return cross_validate(eps, "single", spec, plan, mode="summary", select_k=select_k)


def _groups_by_pair(features, selected):
    """Positions within ``selected`` grouped by their column's pair, and the
    pairs, in (channel, chromophore) label order."""
    groups = {}
    for pos, col in enumerate(selected):
        groups.setdefault(features.pairs[col // features.block_width], []).append(pos)
    keys = sorted(groups)
    return [groups[k] for k in keys], keys


def _per_row_attributions(cv, select_k):
    """The (test trials × pairs) matrix of every test row's phi, from
    exact_shapley or kernel_shap called on it: composed rows scored by
    predict_score."""
    pairs = cv.features.pairs
    expected = []
    for fold in cv.folds:
        groups, keys = _groups_by_pair(cv.features, fold.selected)
        assert (len(groups) <= explain.FOLD_EXACT_MAX_GROUPS) == (select_k == 6)
        background = build_background(fold.train_x)
        for row in fold.test_x:
            if select_k == 6:
                att = exact_shapley(fold.model.predict_score, background, row, groups)
            else:
                att = kernel_shap(
                    fold.model.predict_score, background, row, groups, n_samples=128, seed=4
                )
            phi = np.zeros(len(pairs))
            phi[[pairs.index(k) for k in keys]] = att.phi
            expected.append(phi)
    return np.array(expected)


@pytest.mark.parametrize("kind", learn.KINDS)
@pytest.mark.parametrize("select_k, channel_ids", CV_CASES)
def test_fold_attribution_equals_per_row_calls(monkeypatch, kind, select_k, channel_ids):
    cv = _small_cv(monkeypatch, kind, select_k, channel_ids)
    # 128 samples leave the kernel sampler a random partial size pair
    _, phi = attribute_cross_validation(cv, n_samples=128, seed=4)
    expected = _per_row_attributions(cv, select_k)
    n_trials = sum(len(f.test_x) for f in cv.folds)
    assert phi.shape == expected.shape == (n_trials, len(cv.features.pairs))
    for got, want in zip(phi, expected):
        assert np.array_equal(got, want)


def test_unselected_pair_has_zero_column_and_ranks_after_every_nonzero_pair(monkeypatch):
    cv = _small_cv(monkeypatch, "knn", 6)
    ranking, phi = attribute_cross_validation(cv, n_samples=128, seed=4)
    pairs = cv.features.pairs
    selected = {pairs[c // cv.features.block_width] for f in cv.folds for c in f.selected}
    unselected = [j for j, pair in enumerate(pairs) if pair not in selected]
    assert unselected
    assert not phi[:, unselected].any()
    # The ranking lists every pair, and its values descend, so a pair at 0
    # comes after every nonzero pair.
    values = {(ch, chrom): v for ch, chrom, v in ranking.entries}
    assert sorted(values) == sorted(pairs)
    assert all(values[pairs[j]] == 0.0 for j in unselected)
    assert any(v > 0 for v in values.values())


def _counting(score):
    calls = []

    def counted(x):
        calls.append(len(x))
        return score(x)

    return counted, calls


def test_kernel_budget_error_comes_before_scoring(monkeypatch):
    score, calls = _counting(_linear(np.ones(6)))
    with pytest.raises(ValueError, match="n_samples"):
        kernel_shap(score, np.zeros((2, 6)), np.ones(6), n_samples=13)
    cv = _small_cv(monkeypatch, "random_forest", 60)
    for fold in cv.folds:
        fold.model.predict_score = score
    with pytest.raises(ValueError, match="n_samples"):
        attribute_cross_validation(cv, n_samples=20)
    assert calls == []


def test_singular_kernel_regression_fails_before_scoring(monkeypatch):
    def one_coalition(n, budget, rng):
        masks = np.zeros((budget, n), dtype=bool)
        masks[:, 0] = True
        return masks, np.ones(budget)

    monkeypatch.setattr(explain, "_sample_coalitions", one_coalition)
    score, calls = _counting(_linear(np.ones(6)))
    with pytest.raises(ValueError, match="insufficient coalition diversity"):
        kernel_shap(score, np.zeros((2, 6)), np.ones(6), n_samples=40)
    cv = _small_cv(monkeypatch, "random_forest", 60)
    for fold in cv.folds:
        fold.model.predict_score = score
    with pytest.raises(ValueError, match="insufficient coalition diversity"):
        attribute_cross_validation(cv, n_samples=40)
    assert calls == []


@pytest.mark.parametrize("kind", learn.KINDS)
@pytest.mark.parametrize("select_k, channel_ids", CV_CASES)
@pytest.mark.parametrize("masks_per_call", [1, 3])
def test_row_cap_bounds_every_score_call_and_leaves_phi_unchanged(
    monkeypatch, kind, select_k, channel_ids, masks_per_call
):
    cv = _small_cv(monkeypatch, kind, select_k, channel_ids)
    expected = _per_row_attributions(cv, select_k)
    n_bg = build_background(cv.folds[0].train_x).shape[0]
    cap = masks_per_call * n_bg
    monkeypatch.setattr(explain, "_SCORE_CHUNK", cap)
    rows = []
    score = type(cv.folds[0].model).predict_score
    monkeypatch.setattr(
        type(cv.folds[0].model), "predict_score", lambda model, x: rows.append(len(x)) or score(model, x)
    )
    walk = learn._Ensemble.walk
    monkeypatch.setattr(
        learn._Ensemble,
        "walk",
        lambda self, tree, first_row, x, out: rows.append(len(x)) or walk(self, tree, first_row, x, out),
    )
    _, phi = attribute_cross_validation(cv, n_samples=128, seed=4)
    assert rows and max(rows) <= cap
    assert phi.shape == expected.shape
    # The tree path gives the same floats by construction. knn and svm score
    # through BLAS products, whose rounding may depend on the rows per call.
    same = np.array_equal if kind in ("random_forest", "boosted_trees") else _within_rounding
    for got, want in zip(phi, expected):
        assert same(got, want)


def _within_rounding(a, b):
    return np.allclose(a, b, rtol=1e-12, atol=1e-15)


# --- the tree path against composed rows ---

GAME = [[0], [1, 2], [3], [4, 5], [6]]  # columns 7 and 8 are in no group


def _tree_model(monkeypatch, kind):
    """A small forest or boosting model with two trees put in its middle: one
    that reads no column, one that reads only column 7, outside every group."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(80, 9))
    y = (x[:, 0] + x[:, 2] + x[:, 7] + rng.normal(scale=0.5, size=80) > 0).astype(int)
    monkeypatch.setattr(learn, "_RF_TREES", 12)
    monkeypatch.setattr(learn, "_GBDT_ROUNDS", 12)
    model = learn.fit(ClassifierSpec(kind=kind, seed=3), x, y)
    threshold = [0.2] if kind == "random_forest" else [30]
    dtype = model.trees[0].threshold.dtype
    leaf = learn._Tree(
        feature=np.array([-1]),
        threshold=np.zeros(1, dtype=dtype),
        left=np.array([-1]),
        right=np.array([-1]),
        value=np.zeros(1),
    )
    stump = learn._Tree(
        feature=np.array([7, -1, -1]),
        threshold=np.array(threshold + [0, 0], dtype=dtype),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        value=np.zeros(3),
    )
    model.trees[5:5] = [leaf, stump]
    # Leaves of many magnitudes: a sum in another order rounds otherwise.
    for tree in model.trees:
        tree.value = rng.uniform(-1, 1, tree.value.size) * 10.0 ** rng.integers(-3, 3, tree.value.size)
    return model, x, rng.normal(size=(4, 9))


@pytest.mark.parametrize("kind", ["random_forest", "boosted_trees"])
@pytest.mark.parametrize("masks", ["exact", "kernel"])
@pytest.mark.parametrize("small_blocks", [False, True])
def test_tree_values_equal_composed_scores(monkeypatch, kind, masks, small_blocks):
    model, x, instances = _tree_model(monkeypatch, kind)
    n = len(GAME)
    if masks == "exact":
        mask = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    else:
        mask, _ = explain._sample_coalitions(n, 14, np.random.default_rng(2))
    background = build_background(x)
    if small_blocks:
        # walks of a few pairs, blocks of three masks, windows of two trees
        monkeypatch.setattr(learn, "_WALK_CELLS", 40)
        monkeypatch.setattr(explain, "_SCORE_CHUNK", 3 * background.shape[0])
        monkeypatch.setattr(explain, "_LEAF_CELLS", 2 * background.shape[0])
    values = explain._tree_game(model, background, GAME).values(mask)
    composed = explain._composed_game(model.predict_score, background, GAME).values(mask)
    # Every sum of leaves, before the mean or the sigmoid, is compared too.
    totals = []
    finish = model.finish
    model.finish = lambda total: totals.append(total.ravel()) or finish(total)
    for instance in np.vstack([instances, background[:1]]):
        got = values(instance)
        tree_totals = totals.pop()
        expected = composed(instance)
        assert np.array_equal(got, expected)
        assert np.array_equal(tree_totals, np.concatenate(totals))
        totals.clear()


@pytest.mark.parametrize("kind", ["random_forest", "boosted_trees"])
def test_a_tree_model_packs_its_trees_once(monkeypatch, kind):
    # predict_score, the leaf total and the tree game all walk one packing.
    model, x, instances = _tree_model(monkeypatch, kind)
    packed = []
    pack = learn._Ensemble.__init__
    monkeypatch.setattr(
        learn._Ensemble, "__init__", lambda self, trees: packed.append(trees) or pack(self, trees)
    )
    scores = model.predict_score(x)
    game = explain._tree_game(model, build_background(x), GAME)
    game.values(np.ones((1, len(GAME)), dtype=bool))(instances[0])
    game.empty(), game.full(instances[0])
    if kind == "boosted_trees":
        assert np.array_equal(learn._sigmoid(model._leaf_total(x)), scores)
    assert len(packed) == 1 and packed[0] is model.trees
    assert np.array_equal(model.predict_score(x), scores)
