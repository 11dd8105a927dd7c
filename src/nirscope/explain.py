"""Shapley-value attribution and per-channel importance ranking.

Provides an exact enumerating attributor for small group counts and a
kernel-weighted least-squares approximation for larger ones. The value of a
coalition is the mean model score over background rows with the coalition's
feature groups replaced by the explained instance. Ranking aggregates mean
absolute attributions per (channel, chromophore).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .features import FeatureKey
from .learn import _Ensemble, _TreeModel

__all__ = [
    "Attribution",
    "ChannelImportance",
    "exact_shapley",
    "kernel_shap",
    "channel_importance",
    "build_background",
    "group_columns",
    "attribute_cross_validation",
]

EXACT_MAX_GROUPS = 20
# Exact enumeration costs 2^groups coalitions per explained row.
# attribute_cross_validation pays that for every test row of a fold, so it
# switches to the kernel estimate past 12 groups (4,096 coalitions against a
# budget of a few hundred samples); a single exact_shapley call, such as an
# oracle for the kernel estimate, may still go up to EXACT_MAX_GROUPS.
FOLD_EXACT_MAX_GROUPS = 12
# Rows per score call. A call scores (part of) one explained row's
# coalitions, each composed with every background row; explained rows are
# not batched together. This caps the composed matrix and the model's work
# arrays (knn's distances to every training row), which the exact path's
# 2^groups coalitions × 16 background rows would take to 65,536 rows at 12
# groups. The tree path composes at most as many rows at once.
_SCORE_CHUNK = 1024
# Leaf values the tree path holds at once: its trees go in windows, in tree
# order, of this many (tree, pattern, background row) triples plus at most
# one tree's.
_LEAF_CELLS = 1 << 17
# Training rows, strided by norm, beside the mean row in each background.
_BACKGROUND_ROWS = 15


@dataclass(frozen=True, eq=False)
class Attribution:
    """Per-group attribution values for one explained instance."""

    phi: np.ndarray  # (n_groups,)
    base_value: float


@dataclass(frozen=True)
class ChannelImportance:
    """Ranked (channel, chromophore, mean absolute attribution) triples."""

    entries: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        values = [v for _, _, v in self.entries]
        if any(v < 0 for v in values):
            raise ValueError("importances must be nonnegative")
        if any(a < b for a, b in zip(values, values[1:])):
            raise ValueError("importances must be sorted descending")

    def top(self, n: int) -> tuple[tuple[str, str, float], ...]:
        return self.entries[:n]


ScoreFn = Callable[[np.ndarray], np.ndarray]
# The coalition values of one game: given the member matrix of its masks, a
# function of the explained row giving v(S) for each mask, as
# _coalition_values does. Everything that does not depend on the explained
# row is done when the function is made.
CoalitionValues = Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
# The per-row attributor of one game (score function, background, groups);
# everything that does not depend on the explained row is done when it is made.
Explainer = Callable[[np.ndarray], Attribution]


def _members(groups: Sequence[Sequence[int]], n_cols: int, masks: np.ndarray) -> np.ndarray:
    """(n_masks, n_cols): is the column taken from the instance under each mask?"""
    # Map every column to its group (-1 = not in the game, stays background).
    col_group = np.full(n_cols, -1, dtype=int)
    for gi, cols in enumerate(groups):
        col_group[list(cols)] = gi
    padded = np.concatenate([masks, np.zeros((masks.shape[0], 1), dtype=bool)], axis=1)
    return padded[:, col_group]


def _coalition_values(
    score_fn: ScoreFn, background: np.ndarray, instance: np.ndarray, member: np.ndarray
) -> np.ndarray:
    """v(S) for each mask row: mean score over background with S from instance."""
    n_bg, n_cols = background.shape
    n_masks = member.shape[0]
    values = np.empty(n_masks)
    rows_per_batch = max(1, _SCORE_CHUNK // n_bg)
    for start in range(0, n_masks, rows_per_batch):
        batch = member[start : start + rows_per_batch]
        composed = np.where(
            batch[:, None, :], instance[None, None, :], background[None, :, :]
        )
        flat = composed.reshape(-1, n_cols)
        scores = np.asarray(score_fn(flat), dtype=float).reshape(batch.shape[0], n_bg)
        values[start : start + batch.shape[0]] = scores.mean(axis=1)
    return values


def _composed_values(score_fn: ScoreFn, background: np.ndarray) -> CoalitionValues:
    """Score every composed row: any model."""

    def of_members(member):
        return lambda instance: _coalition_values(score_fn, background, instance, member)

    return of_members


def _tree_values(model: _TreeModel, ensemble: _Ensemble, background: np.ndarray) -> CoalitionValues:
    """_coalition_values(model.predict_score, background, ·, member), bit for
    bit, walking each tree once per column pattern.

    A tree reads only the columns it splits on, so masks that agree on those
    columns send a background row to the same leaf. Per game, each tree's
    masks are grouped into distinct patterns of its columns, each kept with
    its first mask. Per explained row, only those masks' rows are composed,
    at most _SCORE_CHUNK rows at a time; each (tree, pattern, background
    row) triple is walked once; and every mask takes its pattern's leaf
    back. The leaves are summed in tree order and finished as predict_score
    does, so each score is the same float. ``ensemble`` is model.trees
    packed.
    """
    reads = [np.unique(t.feature[t.feature >= 0]) for t in model.trees]
    background = model.leaf_input(background)
    n_bg, n_cols = background.shape
    masks_per_block = max(1, _SCORE_CHUNK // n_bg)

    def of_members(member):
        firsts, inverses = [], []
        for cols in reads:
            # Bit-packed rows of the columns the tree reads: one code per pattern.
            _, first, inverse = np.unique(
                np.packbits(member[:, cols], axis=1), axis=0, return_index=True, return_inverse=True
            )
            firsts.append(first)
            inverses.append(inverse.reshape(-1))
        counts = np.array([f.size for f in firsts])
        starts = np.cumsum(counts) - counts
        window_of = starts * n_bg // _LEAF_CELLS
        windows = []
        for w in np.unique(window_of):
            trees = np.flatnonzero(window_of == w)
            tree = np.repeat(trees, counts[trees])
            first = np.concatenate([firsts[t] for t in trees])
            masks, rank = np.unique(first, return_inverse=True)
            block_of = rank // masks_per_block
            # Walk order, which is also the order of the window's leaf rows:
            # by block of masks, then deepest tree first.
            order = np.lexsort((-ensemble.depth[tree], block_of))
            leaf_row = np.argsort(order)
            bounds = np.searchsorted(block_of[order], np.arange(block_of.max() + 2))
            blocks = []
            for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                units = order[lo:hi]
                first_row = (rank[units] - b * masks_per_block) * n_bg
                rows_of = masks[b * masks_per_block : (b + 1) * masks_per_block]
                blocks.append((member[rows_of], tree[units], first_row, slice(lo, hi)))
            # per tree of the window, each mask's leaf row
            leaf_of = [leaf_row[inverses[t] + starts[t] - starts[trees[0]]] for t in trees]
            windows.append((first.size, blocks, leaf_of))

        def values(instance: np.ndarray) -> np.ndarray:
            instance = model.leaf_input(instance[None, :])[0]
            total = np.full((member.shape[0], n_bg), model.leaf_init)
            term = np.empty_like(total)
            for n_leaves, blocks, leaf_of in windows:
                leaves = np.empty((n_leaves, n_bg))
                for block_member, tree, first_row, rows in blocks:
                    composed = np.where(block_member[:, None, :], instance, background)
                    ensemble.walk(tree, first_row, composed.reshape(-1, n_cols), leaves[rows])
                leaves *= model.leaf_scale
                for rows in leaf_of:
                    total += np.take(leaves, rows, axis=0, out=term)
            return model.finish(total).mean(axis=1)

        return values

    return of_members


def _validate_groups(groups: Sequence[Sequence[int]], n_columns: int):
    seen: set[int] = set()
    for g in groups:
        cols = set(int(c) for c in g)
        if not cols:
            raise ValueError("empty feature group")
        if cols & seen:
            raise ValueError("feature groups must not overlap")
        if any(c < 0 or c >= n_columns for c in cols):
            raise ValueError("feature group column out of range")
        seen |= cols


def _prepare(background, instance, groups):
    background = np.atleast_2d(np.asarray(background, dtype=float))
    instance = np.asarray(instance, dtype=float).ravel()
    if background.shape[0] == 0:
        raise ValueError("background set is empty")
    if groups is None:
        groups = [[j] for j in range(instance.size)]
    _validate_groups(groups, instance.size)
    return background, instance, groups


def _exact_explainer(
    values: CoalitionValues, n_cols: int, groups: Sequence[Sequence[int]]
) -> Explainer:
    """Exact Shapley values of any row: masks, size weights and the
    coalition values' per-game work made once."""
    n = len(groups)
    masks = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    value_of = values(_members(groups, n_cols, masks))
    sizes = masks.sum(axis=1)
    fact = [math.factorial(i) for i in range(n + 1)]
    weight_by_size = np.array(
        [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)] + [0.0]
    )
    # Per group g: the coalitions with and without g, and their weights.
    terms = []
    for g in range(n):
        idx_without = np.nonzero(~masks[:, g])[0]
        terms.append((idx_without | (1 << g), idx_without, weight_by_size[sizes[idx_without]]))

    def explain(instance: np.ndarray) -> Attribution:
        v = value_of(instance)
        phi = np.array(
            [float(np.sum(w * (v[with_g] - v[without]))) for with_g, without, w in terms]
        )
        return Attribution(phi=phi, base_value=float(v[0]))

    return explain


def exact_shapley(
    score_fn: ScoreFn,
    background: np.ndarray,
    instance: np.ndarray,
    groups: Sequence[Sequence[int]] | None = None,
) -> Attribution:
    """Exact Shapley values by full coalition enumeration.

    phi_g sums over all coalitions S not containing g the weighted marginal
    contribution |S|!(n-|S|-1)!/n! * (v(S+g) - v(S)). Capped at 20 groups.
    """
    background, instance, groups = _prepare(background, instance, groups)
    n = len(groups)
    if n > EXACT_MAX_GROUPS:
        raise ValueError(f"{n} groups exceeds the exact enumeration cap ({EXACT_MAX_GROUPS})")
    values = _composed_values(score_fn, background)
    return _exact_explainer(values, background.shape[1], groups)(instance)


def _kernel_weight(n: int, size: int) -> float:
    return (n - 1) / (math.comb(n, size) * size * (n - size))


def _sample_coalitions(n: int, budget: int, rng: np.random.Generator):
    """Masks and weights for the kernel regression (empty/full excluded).

    Complete coalition size pairs (s, n-s) are enumerated outright while the
    budget allows (smallest and largest sizes first, where the kernel mass
    sits). The remaining budget is split across the leftover size pairs in
    proportion to their kernel mass; within a pair, distinct coalitions are
    drawn and immediately paired with their complements (antithetic
    sampling), each carrying an even share of its size's kernel mass.
    """
    masks: list[np.ndarray] = []
    weights: list[float] = []
    half = (n - 1) // 2 + 1
    paired: list[tuple[int, ...]] = []
    for s in range(1, half + 1):
        if s > n - s:
            break
        paired.append((s,) if s == n - s else (s, n - s))
    remaining = budget
    for pair in paired:
        count = sum(math.comb(n, s) for s in pair)
        if count <= remaining:
            for s in pair:
                w = _kernel_weight(n, s)
                for combo in combinations(range(n), s):
                    mask = np.zeros(n, dtype=bool)
                    mask[list(combo)] = True
                    masks.append(mask)
                    weights.append(w)
            remaining -= count
            continue
        if remaining <= 0:
            break
        if remaining < count / 4:
            # Sparse coverage would concentrate this size's kernel mass on a
            # few heavily weighted rows; skipping the size entirely is lower
            # variance (the completed sizes already identify the values).
            break
        # Partial pair: draw distinct coalitions of the smaller size and pair
        # each with its complement (antithetic); the drawn coalitions split
        # their size's total kernel mass evenly.
        s = pair[0]
        n_first = (remaining + 1) // 2 if len(pair) == 2 else remaining
        n_second = remaining - n_first if len(pair) == 2 else 0
        cap = math.comb(n, s)
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < min(n_first, cap):
            combo = tuple(sorted(rng.choice(n, size=s, replace=False).tolist()))
            chosen.add(combo)
        first = sorted(chosen)
        w_first = _kernel_weight(n, s) * cap / max(len(first), 1)
        for combo in first:
            mask = np.zeros(n, dtype=bool)
            mask[list(combo)] = True
            masks.append(mask)
            weights.append(w_first)
        if n_second > 0:
            comp = first[:n_second]
            w_second = _kernel_weight(n, n - s) * math.comb(n, n - s) / len(comp)
            for combo in comp:
                mask = np.ones(n, dtype=bool)
                mask[list(combo)] = False
                masks.append(mask)
                weights.append(w_second)
        break
    return np.array(masks, dtype=bool), np.array(weights)


def _kernel_explainer(
    score_fn: ScoreFn,
    values: CoalitionValues,
    background: np.ndarray,
    groups: Sequence[Sequence[int]],
    n_samples: int,
    seed: int,
) -> Explainer:
    """Kernel Shapley estimates of any row.

    The coalitions, their weights, the normal matrix (with its condition
    check), the coalition values' per-game work and the background score are
    made once, before any row is scored; the empty and full coalitions are
    scored by ``score_fn``.
    """
    n = len(groups)
    if n == 1:
        base = float(np.mean(np.asarray(score_fn(background))))

        def explain_one(instance: np.ndarray) -> Attribution:
            full = float(np.mean(np.asarray(score_fn(instance[None, :]))))
            return Attribution(phi=np.array([full - base]), base_value=base)

        return explain_one
    if n_samples < 2 * n + 2:
        raise ValueError(f"n_samples must be at least 2*n_groups+2 = {2 * n + 2}, got {n_samples}")
    rng = np.random.default_rng(seed)
    masks, weights = _sample_coalitions(n, n_samples - 2, rng)
    # Eliminate the last coefficient with the efficiency constraint
    # sum(phi) = delta, then solve the weighted normal equations.
    z = masks.astype(float)
    zc = z[:, :-1] - z[:, -1:]
    zw = zc * weights[:, None]
    a = zc.T @ zw
    try:
        cond = np.linalg.cond(a)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError("insufficient coalition diversity for the kernel regression")
    value_of = values(_members(groups, background.shape[1], masks))
    base = float(np.mean(np.asarray(score_fn(background), dtype=float)))

    def explain(instance: np.ndarray) -> Attribution:
        v = value_of(instance)
        full = float(np.mean(np.asarray(score_fn(instance[None, :]), dtype=float)))
        delta = full - base
        yc = (v - base) - z[:, -1] * delta
        phi_head = np.linalg.solve(a, zw.T @ yc)
        phi = np.append(phi_head, delta - phi_head.sum())
        return Attribution(phi=phi, base_value=base)

    return explain


def kernel_shap(
    score_fn: ScoreFn,
    background: np.ndarray,
    instance: np.ndarray,
    groups: Sequence[Sequence[int]] | None = None,
    n_samples: int = 256,
    seed: int = 0,
) -> Attribution:
    """Shapley estimation by kernel-weighted least squares.

    Coalitions are weighted by (n-1)/(C(n,|S|)*|S|*(n-|S|)); the empty and
    full coalitions are always included through an exactly enforced
    efficiency constraint. Deterministic given the seed. When the budget
    covers every coalition the result equals exact enumeration.
    """
    background, instance, groups = _prepare(background, instance, groups)
    values = _composed_values(score_fn, background)
    return _kernel_explainer(score_fn, values, background, groups, n_samples, seed)(instance)


def channel_importance(
    phi: np.ndarray,
    group_keys: Sequence[tuple[str, str]],
    extra_zero_keys: Sequence[tuple[str, str]] = (),
) -> ChannelImportance:
    """Rank (channel, chromophore) pairs by mean absolute attribution.

    ``phi`` is (trials, pairs): column j holds every trial's attribution to
    the pair ``group_keys[j]``. The absolute values are summed row by row in
    trial order, then divided by the number of trials. ``extra_zero_keys``
    appends pairs that never entered the model with importance 0. Ties sort
    by channel then chromophore label.
    """
    phi = np.asarray(phi, dtype=float)
    if len(phi) == 0:
        raise ValueError("no attributions to rank")
    if phi.ndim != 2 or phi.shape[1] != len(group_keys):
        raise ValueError("attribution columns do not match group keys")
    if len(set(group_keys)) != len(group_keys):
        raise ValueError("group keys must name each pair once")
    totals = np.zeros(phi.shape[1])
    for row in np.abs(phi):
        totals += row
    means = {key: float(total) / len(phi) for key, total in zip(group_keys, totals)}
    for key in extra_zero_keys:
        means.setdefault(key, 0.0)
    ranked = sorted(means.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    return ChannelImportance(
        entries=tuple((ch, chrom, val) for (ch, chrom), val in ranked)
    )


def build_background(train_x: np.ndarray) -> np.ndarray:
    """Mean training row plus up to _BACKGROUND_ROWS norm-strided rows."""
    x = np.asarray(train_x, dtype=float)
    if x.shape[0] == 0:
        raise ValueError("training matrix is empty")
    mean_row = x.mean(axis=0, keepdims=True)
    order = np.argsort(np.linalg.norm(x, axis=1), kind="stable")
    count = min(_BACKGROUND_ROWS, x.shape[0])
    strided = order[np.unique(np.linspace(0, x.shape[0] - 1, count).round().astype(int))]
    return np.vstack([mean_row, x[strided]])


def group_columns(
    feature_index: Sequence[FeatureKey], columns: Sequence[int]
) -> tuple[list[list[int]], list[tuple[str, str]]]:
    """Group column positions by (channel, chromophore).

    ``columns`` are indices into the full feature index; returned groups
    hold positions within ``columns`` (i.e. into the selected submatrix).
    """
    groups: dict[tuple[str, str], list[int]] = {}
    for pos, col in enumerate(columns):
        key = (feature_index[col].channel_id, feature_index[col].chromophore)
        groups.setdefault(key, []).append(pos)
    keys = sorted(groups)
    return [groups[k] for k in keys], keys


def attribute_cross_validation(
    cv,
    n_samples: int = 256,
    seed: int = 0,
) -> tuple[ChannelImportance, np.ndarray, list[tuple[str, str]]]:
    """Attribute every test trial against its fold's model, then rank channels.

    Returns the ranking, the (test trials × pairs) attribution matrix, with
    trials in fold order and a zero where a trial's fold did not select the
    pair, and the pairs of its columns: the sorted union of every fold's
    (channel, chromophore) pairs.

    Uses exact enumeration for folds with at most FOLD_EXACT_MAX_GROUPS
    groups, kernel estimation otherwise. A fold's coalitions, weights,
    normal matrix and background score are made once and shared by its
    trials, which get the values exact_shapley or kernel_shap would give
    each of them. Forest and boosting folds score their coalitions by
    column pattern (_tree_values); other models score composed rows.
    Channels never selected in any fold are reported with zero importance.
    """
    fold_groups = [group_columns(cv.features.feature_index, f.selected) for f in cv.folds]
    union = sorted({k for _, keys in fold_groups for k in keys})
    key_pos = {k: i for i, k in enumerate(union)}
    phi = np.zeros((sum(len(f.test_x) for f in cv.folds), len(union)))
    trial = 0
    for fold, (groups, keys) in zip(cv.folds, fold_groups):
        background = build_background(fold.train_x)
        model = fold.model
        if isinstance(model, _TreeModel):
            # The fold's trees packed once, for every score of the fold.
            ensemble = _Ensemble(model.trees)
            score_fn = partial(model.score_with, ensemble)
            values = _tree_values(model, ensemble, background)
        else:
            score_fn = model.predict_score
            values = _composed_values(score_fn, background)
        if len(groups) <= FOLD_EXACT_MAX_GROUPS:
            explain = _exact_explainer(values, background.shape[1], groups)
        else:
            explain = _kernel_explainer(score_fn, values, background, groups, n_samples, seed)
        columns = [key_pos[k] for k in keys]
        for row in fold.test_x:
            phi[trial, columns] = explain(row).phi
            trial += 1
    montage_keys = sorted(
        {(fk.channel_id, fk.chromophore) for fk in cv.features.feature_index}
    )
    ranking = channel_importance(phi, union, extra_zero_keys=montage_keys)
    return ranking, phi, union
