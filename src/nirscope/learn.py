"""Classifiers, metrics, and six-fold cross-participant validation.

All four learners are self-contained and deterministic given (data, seed):
k-nearest neighbors, bagged CART random forest, a linear SVM trained by
subgradient descent on the regularized hinge loss, and histogram gradient
boosting with leaf-wise tree growth. Metrics are support-weighted over the
two classes, so weighted recall always equals accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .features import (
    FeatureMatrix,
    anova_f_scores,
    build_features,
    default_select_k,
    select_k_best,
    standardize,
)
from .model import GROUPS, EpochSet

__all__ = [
    "ClassifierSpec",
    "Metrics",
    "FoldPlan",
    "fit",
    "predict",
    "evaluate",
    "make_fold_plan",
    "cross_validate",
    "CrossValidation",
    "FoldResult",
]

KINDS = ("knn", "random_forest", "linear_svm", "boosted_trees")
# Hyperparameters of the four learners.
_KNN_K = 5  # neighbours
_RF_TREES = 100
_SVM_C = 1.0  # hinge-loss weight; the L2 weight is 1 / (C * n)
_SVM_EPOCHS = 200
_GBDT_ROUNDS = 100
_GBDT_LEARNING_RATE = 0.1
_GBDT_MAX_LEAVES = 31
_GBDT_BINS = 64  # histogram bins per feature


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str = "knn"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"classifier kind must be one of {KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float

    def __post_init__(self):
        for name in ("accuracy", "precision", "recall", "f1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {v}")


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _validate_training(x: np.ndarray, y: np.ndarray):
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("training matrix must be nonempty and 2-D")
    if not np.all(np.isfinite(x)):
        raise ValueError("training matrix contains NaN or Inf")
    if np.unique(y).size < 2:
        raise ValueError("training labels contain a single class")


# ---------------------------------------------------------------------------
# k-nearest neighbors


@dataclass(frozen=True, eq=False)
class KnnModel:
    x: np.ndarray
    y: np.ndarray
    k: int

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def predict_score(self, x: np.ndarray) -> np.ndarray:
        x = _check_columns(x, self.n_features)
        # Squared distances via the expansion trick.
        d2 = (
            (x**2).sum(axis=1)[:, None]
            + (self.x**2).sum(axis=1)[None, :]
            - 2.0 * x @ self.x.T
        )
        # The k nearest as a stable sort picks them: every row at most the
        # k-th distance away, unless more than k tie at that distance or it
        # is NaN; only the sort, which breaks ties by training-row index,
        # orders such rows. Labels are 0 or 1, so the score is the share of
        # the k labelled 1.
        kth = np.partition(d2, self.k - 1, axis=1)[:, [self.k - 1]]
        nearest = d2 <= kth
        score = np.count_nonzero(nearest & (self.y == 1), axis=1) / self.k
        odd = np.flatnonzero(np.count_nonzero(nearest, axis=1) != self.k)
        if odd.size:
            order = np.argsort(d2[odd], axis=1, kind="stable")[:, : self.k]
            score[odd] = self.y[order].mean(axis=1)
        return score


# ---------------------------------------------------------------------------
# CART forest


@dataclass(eq=False)
class _Tree:
    """Binary tree in arrays: a row goes left where x[feature] <= threshold.

    Forest trees split raw values; boosting trees split bin indices. Children
    always come after their parent, so ``depth`` follows in one forward pass.
    """

    feature: np.ndarray  # -1 for leaves
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int = field(init=False)

    def __post_init__(self):
        depth = np.zeros(self.feature.size, dtype=int)
        for node in np.flatnonzero(self.feature >= 0):
            depth[self.left[node]] = depth[self.right[node]] = depth[node] + 1
        self.depth = int(depth.max())

    def predict(self, x: np.ndarray) -> np.ndarray:
        return _Ensemble([self]).sum(x, np.zeros(x.shape[0]))


_WALK_CELLS = 1 << 15  # (tree, row) pairs walked at once: small enough to stay in cache


class _Ensemble:
    """A tree list packed for a lockstep walk.

    The node arrays are concatenated with per-tree offsets, and every leaf
    becomes a self-loop: both children itself, feature 0 to keep the lookup
    in range. A walk holds node n as 2n, so that 2n + goes_left indexes
    ``child``; the other arrays hold each node's entry twice.
    """

    def __init__(self, trees: list[_Tree]):
        sizes = [t.feature.size for t in trees]
        offsets = np.cumsum([0] + sizes[:-1])
        self.depth = np.array([t.depth for t in trees])
        feature = np.concatenate([t.feature for t in trees])
        leaf = feature < 0
        self_index = np.arange(feature.size)
        shift = np.repeat(offsets, sizes)
        left = np.where(leaf, self_index, np.concatenate([t.left for t in trees]) + shift)
        right = np.where(leaf, self_index, np.concatenate([t.right for t in trees]) + shift)
        self.root = 2 * offsets
        self.child = 2 * np.stack([right, left], axis=1).ravel()
        self.feature = np.repeat(np.where(leaf, 0, feature), 2)
        self.threshold = np.repeat(np.concatenate([t.threshold for t in trees]), 2)
        self.value = np.repeat(np.concatenate([t.value for t in trees]), 2)

    def walk(self, tree: np.ndarray, first_row: np.ndarray, x: np.ndarray, out: np.ndarray):
        """Fill ``out`` (len(tree), width) with leaf values: unit i walks tree
        ``tree[i]`` on rows ``first_row[i] + j`` of x, for j < width.

        Units must come sorted by tree depth, deepest first. Step k of "go
        left where x[row, feature] <= threshold" then moves a prefix of them,
        the units deeper than k, so after the largest depth every (tree, row)
        pair is at its leaf. Units go in blocks of at most _WALK_CELLS pairs.
        """
        n_cols = x.shape[1]
        cells = x.ravel()
        width = out.shape[1]
        columns = np.arange(width) * n_cols
        step = max(1, _WALK_CELLS // width)
        for start in range(0, tree.size, step):
            units = tree[start : start + step]
            depth = self.depth[units]
            row_base = (first_row[start : start + step] * n_cols)[:, None] + columns
            node = np.repeat(self.root[units][:, None], width, axis=1)
            # the number of units deeper than k, for each step k
            for deeper in np.searchsorted(-depth, -np.arange(depth[0])):
                moving = node[:deeper]
                goes_left = cells[row_base[:deeper] + self.feature[moving]] <= self.threshold[moving]
                node[:deeper] = self.child[moving + goes_left]
            np.take(self.value, node, out=out[start : start + units.size])

    def sum(self, x: np.ndarray, out: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Add scale * each tree's leaf value to ``out`` per row, in tree
        order: the walk of every (tree, row) pair. Returns ``out``."""
        order = np.argsort(-self.depth, kind="stable")
        restore = np.argsort(order)  # walk position -> tree order
        block = max(1, _WALK_CELLS // order.size)
        for start in range(0, x.shape[0], block):
            leaves = np.empty((order.size, min(block, x.shape[0] - start)))
            self.walk(order, np.full(order.size, start), x, leaves)
            acc = out[start : start + leaves.shape[1]]
            for v in leaves[restore]:
                acc += scale * v
        return out


def _best_gini_split(x: np.ndarray, y: np.ndarray, features: np.ndarray):
    """(feature, threshold, weighted child impurity) or None.

    Every candidate column is sorted and costed at once; the first minimum
    wins, over features in the given order and over split points within one.
    """
    n = y.size
    v = x[:, features]
    order = np.argsort(v, axis=0, kind="stable")
    vs = np.take_along_axis(v, order, axis=0)
    ones = np.cumsum(y[order], axis=0)
    i = np.arange(1, n)[:, None]  # left side size
    valid = vs[1:] > vs[:-1]
    left_ones = ones[:-1]
    right_ones = ones[-1] - left_ones
    left_n = i.astype(float)
    right_n = (n - i).astype(float)
    gini_l = 1.0 - (left_ones / left_n) ** 2 - (1 - left_ones / left_n) ** 2
    gini_r = 1.0 - (right_ones / right_n) ** 2 - (1 - right_ones / right_n) ** 2
    cost = left_n * gini_l + right_n * gini_r
    cost[~valid] = np.inf
    j = np.argmin(cost, axis=0)
    col = int(np.argmin(cost[j, np.arange(j.size)]))
    j = int(j[col])
    if not valid[j, col]:
        return None
    return int(features[col]), 0.5 * (vs[j, col] + vs[j + 1, col]), float(cost[j, col])


def _grow_cart(x, y, rng, max_features: int) -> _Tree:
    feature, threshold, left, right, value = [], [], [], [], []

    def build(rows: np.ndarray) -> int:
        idx = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(y[rows].mean()))
        ys = y[rows]
        if ys.size < 2 or np.all(ys == ys[0]):
            return idx
        cand = rng.choice(x.shape[1], size=max_features, replace=False)
        split = _best_gini_split(x[rows], ys, np.sort(cand))
        if split is None:
            return idx
        f, thr, _ = split
        go_left = x[rows, f] <= thr
        if not go_left.any() or go_left.all():
            return idx
        feature[idx] = f
        threshold[idx] = thr
        left[idx] = build(rows[go_left])
        right[idx] = build(rows[~go_left])
        return idx

    build(np.arange(x.shape[0]))
    return _Tree(
        feature=np.asarray(feature),
        threshold=np.asarray(threshold),
        left=np.asarray(left),
        right=np.asarray(right),
        value=np.asarray(value),
    )


class _TreeModel:
    """What ForestModel and BoostModel share: x scores as ``finish(leaf_init
    + leaf_scale * each tree's leaf for leaf_input(x), summed in tree
    order)``. The trees are packed into ``ensemble`` once, when the fitted
    model is first scored; every score, explain's coalitions included,
    walks that one packing."""

    @cached_property
    def ensemble(self) -> _Ensemble:
        return _Ensemble(self.trees)

    def _leaf_total(self, x: np.ndarray) -> np.ndarray:
        total = np.full(x.shape[0], self.leaf_init)
        return self.ensemble.sum(self.leaf_input(x), total, self.leaf_scale)

    def predict_score(self, x: np.ndarray) -> np.ndarray:
        return self.finish(self._leaf_total(_check_columns(x, self.n_features)))


@dataclass(eq=False)
class ForestModel(_TreeModel):
    """Bagged CART trees; the score is the mean leaf value."""

    trees: list[_Tree]
    n_features: int
    leaf_init = 0.0
    leaf_scale = 1.0

    def leaf_input(self, x: np.ndarray) -> np.ndarray:
        return x

    def finish(self, total: np.ndarray) -> np.ndarray:
        return total / len(self.trees)


def _fit_forest(spec: ClassifierSpec, x: np.ndarray, y: np.ndarray) -> ForestModel:
    n, n_features = x.shape
    max_features = max(1, int(math.sqrt(n_features)))
    root = np.random.default_rng(spec.seed)
    trees = []
    for _ in range(_RF_TREES):
        rng = np.random.default_rng(root.integers(0, 2**63 - 1))
        rows = rng.integers(0, n, size=n)
        trees.append(_grow_cart(x[rows], y[rows], rng, max_features))
    return ForestModel(trees=trees, n_features=n_features)


# ---------------------------------------------------------------------------
# Linear SVM (subgradient descent on L2-regularized hinge loss)


@dataclass(frozen=True, eq=False)
class SvmModel:
    w: np.ndarray
    b: float

    @property
    def n_features(self) -> int:
        return self.w.size

    def predict_score(self, x: np.ndarray) -> np.ndarray:
        x = _check_columns(x, self.n_features)
        return _sigmoid(x @ self.w + self.b)


def _fit_svm(spec: ClassifierSpec, x: np.ndarray, y: np.ndarray) -> SvmModel:
    n, n_features = x.shape
    s = np.where(y == 1, 1.0, -1.0)
    # Bias handled as a weight on an appended constant feature; the 1/(lam*t)
    # schedule then applies uniformly (Pegasos-style, lam = 1/(C*n)).
    xa = np.hstack([x, np.ones((n, 1))])
    lam = 1.0 / (_SVM_C * n)
    rng = np.random.default_rng(spec.seed)
    w = np.zeros(n_features + 1)
    t = 0
    for _ in range(_SVM_EPOCHS):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = s[i] * (xa[i] @ w)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * s[i] * xa[i]
    return SvmModel(w=w[:-1], b=float(w[-1]))


# ---------------------------------------------------------------------------
# Histogram gradient boosting with leaf-wise growth


def _leaf_best_split(cells, g, h, rows, n_bins):
    """Best (gain, feature, bin, left_rows, right_rows) for one leaf, or
    None when no split gains.

    ``cells`` holds each row's histogram cell per feature: its bin plus
    feature * n_bins, as _fit_boost computes it once.
    """
    if rows.size < 2:
        return None  # a split needs a row on each side
    gt, ht = g[rows].sum(), h[rows].sum()
    parent = gt * gt / ht
    sub = cells[rows]
    n_features = sub.shape[1]
    flat = sub.ravel()
    hist_g = np.bincount(
        flat, weights=np.repeat(g[rows], n_features), minlength=n_features * n_bins
    ).reshape(n_features, n_bins)
    hist_h = np.bincount(
        flat, weights=np.repeat(h[rows], n_features), minlength=n_features * n_bins
    ).reshape(n_features, n_bins)
    gl = np.cumsum(hist_g, axis=1)[:, :-1]
    hl = np.cumsum(hist_h, axis=1)[:, :-1]
    gr = gt - gl
    hr = ht - hl
    valid = (hl > 0) & (hr > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(
            valid,
            gl**2 / hl + gr**2 / hr - parent,
            -np.inf,
        )
    j = int(np.argmax(gain))
    f, b = divmod(j, n_bins - 1)
    if not np.isfinite(gain.flat[j]) or gain.flat[j] <= 1e-12:
        return None
    go_left = sub[:, f] <= f * n_bins + b
    return float(gain.flat[j]), int(f), int(b), rows[go_left], rows[~go_left]


def _grow_boost_tree(cells, g, h, n_bins, max_leaves) -> tuple[_Tree, list]:
    """The tree and its leaves as (node, training rows) pairs."""
    feature, split_bin, left, right, value = [], [], [], [], []
    # Open leaves in creation order, each with its best split (or None),
    # computed once when the leaf is made, and its rows.
    open_leaves = {}
    leaf_rows = {}

    def new_node(rows) -> int:
        idx = len(feature)
        feature.append(-1)
        split_bin.append(0)
        left.append(-1)
        right.append(-1)
        value.append(-g[rows].sum() / h[rows].sum())
        open_leaves[idx] = _leaf_best_split(cells, g, h, rows, n_bins)
        leaf_rows[idx] = rows
        return idx

    new_node(np.arange(cells.shape[0]))
    # Leaf-wise growth: always split the open leaf with the largest gain; the
    # earliest leaf wins a tie.
    n_leaves = 1
    while n_leaves < max_leaves:
        best = None
        for node_idx, split in open_leaves.items():
            if split is not None and (best is None or split[0] > best[1][0]):
                best = (node_idx, split)
        if best is None:
            break
        node_idx, (gain, f, b, rows_l, rows_r) = best
        del open_leaves[node_idx], leaf_rows[node_idx]
        feature[node_idx] = f
        split_bin[node_idx] = b
        left[node_idx] = new_node(rows_l)
        right[node_idx] = new_node(rows_r)
        n_leaves += 1
    tree = _Tree(
        feature=np.asarray(feature),
        threshold=np.asarray(split_bin),
        left=np.asarray(left),
        right=np.asarray(right),
        value=np.asarray(value),
    )
    return tree, list(leaf_rows.items())


@dataclass(eq=False)
class BoostModel(_TreeModel):
    bin_edges: list[np.ndarray]
    trees: list[_Tree]  # thresholds are bin indices
    base_score: float
    learning_rate: float

    @property
    def n_features(self) -> int:
        return len(self.bin_edges)

    @property
    def leaf_init(self) -> float:
        return self.base_score

    @property
    def leaf_scale(self) -> float:
        return self.learning_rate

    def leaf_input(self, x: np.ndarray) -> np.ndarray:
        """Bin indices; binning is per element, so the bins of a composed
        row are composed from the bins of its parts."""
        binned = np.empty(x.shape, dtype=np.int64)
        for f, edges in enumerate(self.bin_edges):
            binned[:, f] = np.searchsorted(edges, x[:, f], side="right")
        return binned

    def finish(self, total: np.ndarray) -> np.ndarray:
        return _sigmoid(total)


def _fit_boost(x: np.ndarray, y: np.ndarray) -> BoostModel:
    n, n_features = x.shape
    n_bins = _GBDT_BINS
    edges = []
    for f in range(n_features):
        # inverted_cdf quantiles are pure order statistics, so the binning is
        # invariant to duplicating every training row
        qs = np.quantile(
            x[:, f], np.linspace(0, 1, n_bins + 1)[1:-1], method="inverted_cdf"
        )
        edges.append(np.unique(qs))
    model = BoostModel(
        bin_edges=edges,
        trees=[],
        base_score=float(np.log((y.mean() + 1e-12) / (1 - y.mean() + 1e-12))),
        learning_rate=_GBDT_LEARNING_RATE,
    )
    cells = model.leaf_input(x) + np.arange(n_features) * n_bins
    score = np.full(n, model.base_score)
    for _ in range(_GBDT_ROUNDS):
        p = _sigmoid(score)
        g = p - y
        # No L2 on leaf weights; the floored hessians keep leaf values finite
        # and leave training exactly invariant to duplicating every row.
        h = np.maximum(p * (1 - p), 1e-12)
        tree, leaves = _grow_boost_tree(cells, g, h, n_bins, _GBDT_MAX_LEAVES)
        model.trees.append(tree)
        # Each training row's leaf is known from the growth: no walk.
        for node, rows in leaves:
            score[rows] += _GBDT_LEARNING_RATE * tree.value[node]
    return model


# ---------------------------------------------------------------------------
# Shared API


def _check_columns(x: np.ndarray, expected: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != expected:
        raise ValueError(f"expected {expected} feature columns, got {x.shape[1]}")
    return x


def fit(spec: ClassifierSpec, x, y):
    """Train a classifier; deterministic given (spec, x, y, spec.seed)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    _validate_training(x, y)
    if spec.kind == "knn":
        if _KNN_K > x.shape[0]:
            raise ValueError(f"k={_KNN_K} neighbours exceed {x.shape[0]} training rows")
        return KnnModel(x=x.copy(), y=y.copy(), k=_KNN_K)
    if spec.kind == "random_forest":
        return _fit_forest(spec, x, y)
    if spec.kind == "linear_svm":
        return _fit_svm(spec, x, y)
    return _fit_boost(x, y)


def predict(model, x) -> np.ndarray:
    """Hard labels from thresholding the score at 0.5."""
    return (model.predict_score(x) >= 0.5).astype(int)


def evaluate(y_true, y_pred) -> Metrics:
    """Support-weighted precision/recall/F1 plus accuracy.

    Per-class values with a zero denominator are defined as 0.
    """
    yt = np.asarray(y_true, dtype=int)
    yp = np.asarray(y_pred, dtype=int)
    if yt.size == 0 or yt.shape != yp.shape:
        raise ValueError("labels must be nonempty and equal length")
    if not (np.isin(yt, (0, 1)).all() and np.isin(yp, (0, 1)).all()):
        raise ValueError("labels must be binary (0 = control, 1 = patient)")
    n = yt.size
    accuracy = float((yt == yp).mean())
    precision = recall = f1 = 0.0
    for cls in (0, 1):
        support = int((yt == cls).sum())
        if support == 0:
            continue
        tp = int(((yt == cls) & (yp == cls)).sum())
        fp = int(((yt != cls) & (yp == cls)).sum())
        fn = support - tp
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        w = support / n
        precision += w * p
        recall += w * r
        f1 += w * f
    return Metrics(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


# ---------------------------------------------------------------------------
# Cross-participant validation


@dataclass(frozen=True)
class FoldPlan:
    """The test participants of each fold; a fold trains on everyone else."""

    folds: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        tested: set[str] = set()
        for test_ids in self.folds:
            dup = tested & set(test_ids)
            if dup:
                raise ValueError(f"participants tested more than once: {sorted(dup)}")
            tested |= set(test_ids)


def make_fold_plan(participants, n_folds: int = 6, seed: int = 0) -> FoldPlan:
    """Stratified participant-level folds.

    Participants are shuffled deterministically by seed within each group
    and dealt round-robin into the test sets, so per-class fold sizes differ
    by at most one. Each fold trains on everyone else.
    """
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    by_group: dict[str, list[str]] = {group: [] for group in GROUPS}
    for pid, group in participants:
        if group not in by_group:
            raise ValueError(f"unknown group {group!r} for participant {pid}")
        by_group[group].append(pid)
    rng = np.random.default_rng(seed)
    test_sets: list[list[str]] = [[] for _ in range(n_folds)]
    for group in reversed(GROUPS):  # patients first: the order fixes the plans
        ids = sorted(by_group[group])
        if len(ids) < n_folds:
            raise ValueError(
                f"{group} group has {len(ids)} participants, fewer than {n_folds} folds"
            )
        shuffled = [ids[i] for i in rng.permutation(len(ids))]
        for i, pid in enumerate(shuffled):
            test_sets[i % n_folds].append(pid)
    return FoldPlan(folds=tuple(tuple(test) for test in test_sets))


@dataclass(eq=False)
class FoldResult:
    test_ids: tuple[str, ...]
    selected: np.ndarray  # column indices into the full feature matrix
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    model: object
    train_x: np.ndarray  # standardized, selected columns
    test_x: np.ndarray
    test_pred: np.ndarray
    metrics: Metrics


@dataclass(eq=False)
class CrossValidation:
    mode: str  # one of features.FEATURE_MODES
    select_k: int
    spec: ClassifierSpec
    features: FeatureMatrix
    folds: list[FoldResult]
    pooled: Metrics


def cross_validate(
    epochs: EpochSet,
    task: str,
    spec: ClassifierSpec,
    plan: FoldPlan,
    mode: str = "raw",
    select_k: int | None = None,
) -> CrossValidation:
    """Per-fold train/evaluate with strict train-side selection and scaling.

    Each fold tests the trials of its participants and trains on all other
    trials. Feature scores, selected columns, and scaler statistics are
    computed from training rows only. Pooled metrics cover the concatenation
    of all folds' test predictions at trial level. Each fold derives its own
    model seed as spec.seed XOR fold index.
    """
    known = {pid for pid, _ in epochs.participants}
    unknown = [pid for test_ids in plan.folds for pid in test_ids if pid not in known]
    if unknown:
        raise ValueError(f"the fold plan names participants the epochs do not have: {unknown}")
    feats = build_features(epochs, task, mode)
    if select_k is None:
        select_k = default_select_k(mode, feats.x.shape[1])
    pids = np.array(feats.participant_ids)
    results: list[FoldResult] = []
    pooled_true: list[np.ndarray] = []
    pooled_pred: list[np.ndarray] = []
    for i, test_ids in enumerate(plan.folds):
        test_mask = np.isin(pids, test_ids)
        if not test_mask.any():
            raise ValueError(f"fold {i}: no test trials for {test_ids}")
        train_mask = ~test_mask
        train_y = feats.y[train_mask]
        if np.unique(train_y).size < 2:
            raise ValueError(f"fold {i}: training data has a single class")
        scores = anova_f_scores(feats.x[train_mask], train_y)
        selected = select_k_best(scores, select_k)
        train_x, test_x, mean, std = standardize(
            feats.x[np.ix_(train_mask, selected)],
            feats.x[np.ix_(test_mask, selected)],
        )
        model = fit(replace(spec, seed=spec.seed ^ i), train_x, train_y)
        test_pred = predict(model, test_x)
        test_y = feats.y[test_mask]
        results.append(
            FoldResult(
                test_ids=test_ids,
                selected=selected,
                scaler_mean=mean,
                scaler_std=std,
                model=model,
                train_x=train_x,
                test_x=test_x,
                test_pred=test_pred,
                metrics=evaluate(test_y, test_pred),
            )
        )
        pooled_true.append(test_y)
        pooled_pred.append(test_pred)
    pooled = evaluate(np.concatenate(pooled_true), np.concatenate(pooled_pred))
    return CrossValidation(
        mode=mode,
        select_k=select_k,
        spec=spec,
        features=feats,
        folds=results,
        pooled=pooled,
    )
