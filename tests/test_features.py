import numpy as np
import pytest

from conftest import make_epoch_set
from nirscope import stats
from nirscope.model import CHROMOPHORES
from nirscope.features import (
    FEATURE_MODES,
    FeatureMatrix,
    anova_f_scores,
    build_features,
    column_count,
    select_k_best,
    standardize,
)


def test_raw_mode_column_count():
    eps = make_epoch_set(n_participants=2, trials=2, n_channels=20, window=78)
    feats = build_features(eps, "single", "raw")
    assert feats.x.shape[1] == 20 * 2 * 78 == 3120
    assert len(feats.pairs) * feats.block_width == 3120
    assert feats.block_width == 78


def test_summary_mode_column_count():
    eps = make_epoch_set(n_participants=2, trials=2, n_channels=20, window=78)
    feats = build_features(eps, "single", "summary")
    assert feats.x.shape[1] == 20 * 2 * 4 == 160


def test_empty_task_filter_rejected():
    eps = make_epoch_set()
    with pytest.raises(ValueError, match="no epochs match"):
        build_features(eps, "dual")


@pytest.mark.parametrize("mode", ["RAW", "mean", ""])
def test_unknown_mode_rejected(mode):
    with pytest.raises(ValueError, match=r"one of \['raw', 'summary'\]"):
        build_features(make_epoch_set(), "single", mode)


def test_column_ordering_channel_major_hbo_first():
    eps = make_epoch_set(n_participants=2, trials=1, n_channels=2, window=3)
    feats = build_features(eps, "single", "raw")
    ch = eps.channel_ids
    assert feats.pairs == ((ch[0], "hbo"), (ch[0], "hbr"), (ch[1], "hbo"), (ch[1], "hbr"))
    assert feats.block_width == 3
    # values line up with the epoch windows
    first = eps.rows(task="single")[0]
    assert np.array_equal(feats.x[0, :3], eps.hemo[first, 0, 0])  # hbo
    assert np.array_equal(feats.x[0, 3:6], eps.hemo[first, 1, 0])  # hbr


def test_pairs_deterministic_across_builds():
    eps = make_epoch_set(seed=12)
    a = build_features(eps, "single", "summary")
    b = build_features(eps, "single", "summary")
    assert a.pairs == b.pairs
    assert np.array_equal(a.x, b.x)


@pytest.mark.parametrize("mode", FEATURE_MODES)
def test_columns_keep_montage_order_not_label_order(mode):
    # Sorted by label, "S10-D1" would come before "S2-D1" and "S3-D1".
    ids = tuple(f"{s}-D1" for s in ("S3", "S12", "S1", "S10", "S2", "S11", "S9"))
    eps = make_epoch_set(n_participants=2, trials=1, channel_ids=ids, window=5, seed=4)
    feats = build_features(eps, "single", mode)
    assert feats.pairs == tuple((ch, chrom) for ch in ids for chrom in CHROMOPHORES)
    assert feats.x.shape[1] == column_count(eps, mode) == len(feats.pairs) * feats.block_width
    # The same draws under the ids S1-D1 ... S7-D1 give the same columns: a
    # column's place follows its channel's montage position, not its label.
    plain = make_epoch_set(n_participants=2, trials=1, n_channels=7, window=5, seed=4)
    assert np.array_equal(feats.x, build_features(plain, "single", mode).x)


def test_summary_stats_values():
    eps = make_epoch_set(n_participants=2, trials=1, n_channels=1, window=10, seed=2)
    feats = build_features(eps, "single", "summary")
    hbo = eps.hemo[0, 0, 0]
    fs = eps.sample_rate_hz
    assert feats.x[0, 0] == pytest.approx(hbo.mean())
    assert feats.x[0, 1] == pytest.approx(hbo[np.argmax(hbo)])
    assert feats.x[0, 2] == pytest.approx(np.argmax(hbo) / fs)
    assert feats.x[0, 3] == pytest.approx((hbo[-1] - hbo[0]) / 9 * fs)


def _summary_row(window, fs, chromophore):
    """The per-window loop body the whole-stack summary replaced."""
    if chromophore == "hbo":
        peak_idx = int(np.argmax(window))
    else:
        peak_idx = int(np.argmax(np.abs(window - window[0])))
    slope = (window[-1] - window[0]) / (len(window) - 1) * fs
    return [float(window.mean()), float(window[peak_idx]), peak_idx / fs, float(slope)]


def test_summary_features_equal_the_per_window_loop_bit_for_bit():
    eps = make_epoch_set(n_participants=4, trials=3, n_channels=5, window=17, seed=4)
    feats = build_features(eps, "single", "summary")
    fs = eps.sample_rate_hz
    expected = [
        [
            v
            for ci in range(len(eps.channel_ids))
            for k, chrom in enumerate(CHROMOPHORES)
            for v in _summary_row(eps.hemo[t, k, ci], fs, chrom)
        ]
        for t in range(len(eps.tasks))
    ]
    assert feats.x.tobytes() == np.array(expected).tobytes()


# --- ANOVA F scoring ---


def test_constant_column_scores_zero():
    x = np.ones((8, 1))
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert anova_f_scores(x, y)[0] == 0.0


def test_perfectly_separating_column_scores_infinity():
    y = np.array([0, 0, 1, 1])
    x = y.astype(float)[:, None]
    assert np.isinf(anova_f_scores(x, y)[0])


def test_f_scores_match_stats_module():
    rng = np.random.default_rng(0)
    y = np.array([0] * 10 + [1] * 12)
    x = rng.normal(size=(22, 5))
    scores = anova_f_scores(x, y)
    for j in range(5):
        ref = stats.one_way_anova([x[y == 0, j], x[y == 1, j]])
        assert scores[j] == pytest.approx(ref.statistic, rel=1e-10)


def test_single_class_rejected():
    with pytest.raises(ValueError, match="both classes"):
        anova_f_scores(np.ones((4, 2)), np.zeros(4, dtype=int))


# --- selection ---


def test_select_all_returns_every_index():
    scores = np.array([0.5, 2.0, 1.0])
    assert sorted(select_k_best(scores, 3).tolist()) == [0, 1, 2]


def test_select_ties_break_by_smaller_index():
    assert select_k_best([3.0, 1.0, 3.0, 2.0], 2).tolist() == [0, 2]


def test_select_matches_full_sort_oracle():
    rng = np.random.default_rng(1)
    scores = rng.random(50)
    got = select_k_best(scores, 5).tolist()
    oracle = sorted(range(50), key=lambda i: (-scores[i], i))[:5]
    assert got == oracle


def test_infinity_sorts_above_finite():
    scores = np.array([10.0, np.inf, 5.0])
    assert select_k_best(scores, 1).tolist() == [1]


def test_select_k_out_of_range():
    with pytest.raises(ValueError):
        select_k_best([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        select_k_best([1.0, 2.0], 3)


# --- standardization ---


def test_self_standardization_zero_mean_unit_std():
    rng = np.random.default_rng(2)
    x = rng.normal(3.0, 2.5, size=(40, 6))
    train_z, apply_z, mean, std = standardize(x, x)
    assert np.allclose(train_z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(train_z.std(axis=0), 1.0, atol=1e-12)
    assert np.array_equal(train_z, apply_z)


def test_constant_column_maps_to_zero_without_nan():
    x = np.ones((5, 2))
    x[:, 1] = np.arange(5)
    train_z, apply_z, _, std = standardize(x, x + 1.0)
    assert np.all(np.isfinite(train_z)) and np.all(np.isfinite(apply_z))
    assert np.all(train_z[:, 0] == 0.0)
    assert np.all(apply_z[:, 0] == 0.0)
    assert std[0] == 0.0


def test_feature_matrix_rejects_nonfinite_entries():
    x = np.ones((2, 1))
    x[0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        FeatureMatrix(
            x=x, y=np.array([0, 1]), participant_ids=("a", "b"), pairs=(("S1-D1", "hbo"),)
        )


@pytest.mark.parametrize("n_columns, n_pairs", [(3, 2), (0, 2), (2, 0)])
def test_feature_matrix_rejects_columns_without_one_equal_block_per_pair(n_columns, n_pairs):
    pairs = (("S1-D1", "hbo"), ("S1-D1", "hbr"))[:n_pairs]
    with pytest.raises(ValueError, match="one equal block per pair"):
        FeatureMatrix(
            x=np.ones((2, n_columns)), y=np.array([0, 1]), participant_ids=("a", "b"), pairs=pairs
        )


def test_held_out_rows_use_train_statistics():
    rng = np.random.default_rng(3)
    train = rng.normal(size=(30, 4))
    held = rng.normal(5.0, 3.0, size=(10, 4))
    _, held_z, mean, std = standardize(train, held)
    self_z, _, _, _ = standardize(held, held)
    assert not np.allclose(held_z, self_z)
    assert np.allclose(held_z, (held - mean) / std)
