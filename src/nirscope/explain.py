"""Shapley-value attribution and per-channel importance ranking.

Attribution is a removal game: the value of a coalition is the mean model
score over background rows with the coalition's feature groups replaced by
the explained instance. Its Shapley values come from exact enumeration for
small group counts and from a kernel-weighted least-squares approximation
for larger ones. A fold's groups are the (channel, chromophore) pairs of its
selected columns (``FeatureMatrix.pairs``), and the ranking aggregates mean
absolute attributions per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .learn import _TreeModel

__all__ = [
    "Attribution",
    "ChannelImportance",
    "exact_shapley",
    "kernel_shap",
    "channel_importance",
    "build_background",
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
        """The first n entries with nonzero importance: a zero entry ranks
        only by its name's place in a tie, so it is no finding."""
        return tuple(e for e in self.entries[:n] if e[2] > 0)


ScoreFn = Callable[[np.ndarray], np.ndarray]
# The per-row attributor of one game; everything that does not depend on the
# explained row is done when it is made.
Explainer = Callable[[np.ndarray], Attribution]


class _Game:
    """The removal game of one model, background and grouping (Covert,
    Lundberg & Lee 2021): v(S) is the mean score over the background rows
    with the groups in S taken from the explained row.

    ``values(masks)`` does the game's per-mask work once and gives a function
    of the explained row returning v(S) for each (groups,) mask row. v(∅) is
    the model's mean score of the background, and v(N) its score of the row
    when every column is in a group, the full coalition's value otherwise.
    """

    def __init__(self, score: ScoreFn, background: np.ndarray, groups, values):
        self.score, self.background, self.values = score, background, values
        self.n = len(groups)
        grouped = len({int(c) for g in groups for c in g}) == background.shape[1]
        self._full_value = None if grouped else values(np.ones((1, self.n), dtype=bool))

    def empty(self) -> float:
        return float(np.mean(np.asarray(self.score(self.background), dtype=float)))

    def full(self, instance: np.ndarray) -> float:
        if self._full_value is None:
            return float(np.mean(np.asarray(self.score(instance[None, :]), dtype=float)))
        return float(self._full_value(instance)[0])


def _members(groups: Sequence[Sequence[int]], n_cols: int, masks: np.ndarray) -> np.ndarray:
    """(n_masks, n_cols): is the column taken from the instance under each mask?"""
    # Map every column to its group (-1 = not in the game, stays background).
    col_group = np.full(n_cols, -1, dtype=int)
    for gi, cols in enumerate(groups):
        col_group[list(cols)] = gi
    padded = np.concatenate([masks, np.zeros((masks.shape[0], 1), dtype=bool)], axis=1)
    return padded[:, col_group]


def _composed_game(score_fn: ScoreFn, background: np.ndarray, groups) -> _Game:
    """Any model: every composed row is scored, at most _SCORE_CHUNK rows a call."""
    n_bg, n_cols = background.shape
    rows_per_batch = max(1, _SCORE_CHUNK // n_bg)

    def values(masks):
        member = _members(groups, n_cols, masks)

        def of_row(instance: np.ndarray) -> np.ndarray:
            v = np.empty(member.shape[0])
            for start in range(0, member.shape[0], rows_per_batch):
                batch = member[start : start + rows_per_batch]
                composed = np.where(batch[:, None, :], instance, background)
                scores = np.asarray(score_fn(composed.reshape(-1, n_cols)), dtype=float)
                v[start : start + batch.shape[0]] = scores.reshape(-1, n_bg).mean(axis=1)
            return v

        return of_row

    return _Game(score_fn, background, groups, values)


def _tree_game(model: _TreeModel, background: np.ndarray, groups) -> _Game:
    """The composed game of ``model.predict_score``, bit for bit, walking
    each tree of the model's one packed ensemble once per column pattern.

    A tree reads only the columns it splits on, so masks that agree on those
    columns send a background row to the same leaf. Per game, each tree's
    masks are grouped into distinct patterns of its columns, each kept with
    its first mask. Per explained row, only those masks' rows are composed,
    at most _SCORE_CHUNK rows at a time; each (tree, pattern, background
    row) triple is walked once; and every mask takes its pattern's leaf
    back. The leaves are summed in tree order and finished as predict_score
    does, so each score is the same float.
    """
    ensemble = model.ensemble
    reads = [np.unique(t.feature[t.feature >= 0]) for t in model.trees]
    leaf_background = model.leaf_input(background)
    n_bg, n_cols = background.shape
    masks_per_block = max(1, _SCORE_CHUNK // n_bg)

    def values(masks):
        member = _members(groups, n_cols, masks)
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
            kept, rank = np.unique(first, return_inverse=True)
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
                rows_of = kept[b * masks_per_block : (b + 1) * masks_per_block]
                blocks.append((member[rows_of], tree[units], first_row, slice(lo, hi)))
            # per tree of the window, each mask's leaf row
            leaf_of = [leaf_row[inverses[t] + starts[t] - starts[trees[0]]] for t in trees]
            windows.append((first.size, blocks, leaf_of))

        def of_row(instance: np.ndarray) -> np.ndarray:
            instance = model.leaf_input(instance[None, :])[0]
            total = np.full((member.shape[0], n_bg), model.leaf_init)
            term = np.empty_like(total)
            for n_leaves, blocks, leaf_of in windows:
                leaves = np.empty((n_leaves, n_bg))
                for block_member, tree, first_row, rows in blocks:
                    composed = np.where(block_member[:, None, :], instance, leaf_background)
                    ensemble.walk(tree, first_row, composed.reshape(-1, n_cols), leaves[rows])
                leaves *= model.leaf_scale
                for rows in leaf_of:
                    total += np.take(leaves, rows, axis=0, out=term)
            return model.finish(total).mean(axis=1)

        return of_row

    return _Game(model.predict_score, background, groups, values)


def _checked_game(score_fn: ScoreFn, background, instance, groups) -> tuple[_Game, np.ndarray]:
    """The composed game of a single-row call, its arguments checked, and the row."""
    background = np.atleast_2d(np.asarray(background, dtype=float))
    instance = np.asarray(instance, dtype=float).ravel()
    if background.shape[0] == 0:
        raise ValueError("background set is empty")
    if groups is None:
        groups = [[j] for j in range(instance.size)]
    seen: set[int] = set()
    for g in groups:
        cols = set(int(c) for c in g)
        if not cols:
            raise ValueError("empty feature group")
        if cols & seen:
            raise ValueError("feature groups must not overlap")
        if any(c < 0 or c >= instance.size for c in cols):
            raise ValueError("feature group column out of range")
        seen |= cols
    return _composed_game(score_fn, background, groups), instance


def _exact_explainer(game: _Game) -> Explainer:
    """Exact Shapley values of any row: masks, size weights and the game's
    per-mask work made once."""
    n = game.n
    masks = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    value_of = game.values(masks)
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
    game, instance = _checked_game(score_fn, background, instance, groups)
    if game.n > EXACT_MAX_GROUPS:
        raise ValueError(f"{game.n} groups exceeds the exact enumeration cap ({EXACT_MAX_GROUPS})")
    return _exact_explainer(game)(instance)


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
    coalitions: list[tuple[int, ...]] = []
    weights: list[float] = []
    remaining = budget
    for pair in [(s,) if s == n - s else (s, n - s) for s in range(1, n // 2 + 1)]:
        count = sum(math.comb(n, s) for s in pair)
        if count <= remaining:
            for s in pair:
                coalitions += combinations(range(n), s)
                weights += [_kernel_weight(n, s)] * math.comb(n, s)
            remaining -= count
            continue
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
        coalitions += first
        weights += [_kernel_weight(n, s) * cap / max(len(first), 1)] * len(first)
        if n_second > 0:
            comp = first[:n_second]
            coalitions += [tuple(j for j in range(n) if j not in combo) for combo in comp]
            weights += [_kernel_weight(n, n - s) * math.comb(n, n - s) / len(comp)] * len(comp)
        break
    masks = np.zeros((len(coalitions), n), dtype=bool)
    for mask, combo in zip(masks, coalitions):
        mask[list(combo)] = True
    return masks, np.array(weights)


def _kernel_explainer(game: _Game, n_samples: int, seed: int) -> Explainer:
    """Kernel Shapley estimates of any row.

    The coalitions, their weights, the normal matrix (with its condition
    check), the game's per-mask work and v(∅) are made once, before any row
    is scored. A one-group game needs no regression: its φ is v(N) − v(∅).
    """
    n = game.n
    if n > 1:
        if n_samples < 2 * n + 2:
            raise ValueError(
                f"n_samples must be at least 2*n_groups+2 = {2 * n + 2}, got {n_samples}"
            )
        masks, weights = _sample_coalitions(n, n_samples - 2, np.random.default_rng(seed))
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
        value_of = game.values(masks)
    base = game.empty()

    def explain(instance: np.ndarray) -> Attribution:
        delta = game.full(instance) - base
        if n == 1:
            return Attribution(phi=np.array([delta]), base_value=base)
        yc = (value_of(instance) - base) - z[:, -1] * delta
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
    efficiency constraint, so phi sums to v(N) - v(∅): the score of the
    instance less the mean score of the background, or, when some column is
    in no group and stays at its background values, the full coalition's
    value less that mean. Deterministic given the seed. When the budget
    covers every coalition the result equals exact enumeration.
    """
    game, instance = _checked_game(score_fn, background, instance, groups)
    return _kernel_explainer(game, n_samples, seed)(instance)


def channel_importance(
    phi: np.ndarray, group_keys: Sequence[tuple[str, str]]
) -> ChannelImportance:
    """Rank (channel, chromophore) pairs by mean absolute attribution.

    ``phi`` is (trials, pairs): column j holds every trial's attribution to
    the pair ``group_keys[j]``. The absolute values are summed row by row in
    trial order, then divided by the number of trials. Ties sort by channel
    then chromophore label.
    """
    phi = np.asarray(phi, dtype=float)
    if len(phi) == 0:
        raise ValueError("no attributions to rank")
    if phi.ndim != 2 or phi.shape[1] != len(group_keys):
        raise ValueError("attribution columns do not match group keys")
    if len(set(group_keys)) != len(group_keys):
        raise ValueError("group keys must name each pair once")
    # A running sum down the trials: sum(axis=0) would add one column's
    # values pairwise, out of trial order.
    totals = np.cumsum(np.abs(phi), axis=0)[-1]
    means = {key: float(total) / len(phi) for key, total in zip(group_keys, totals)}
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


def attribute_cross_validation(
    cv,
    n_samples: int = 256,
    seed: int = 0,
) -> tuple[ChannelImportance, np.ndarray]:
    """Attribute every test trial against its fold's model, then rank pairs.

    Returns the ranking of every pair of ``cv.features.pairs`` and the
    (test trials × pairs) attribution matrix, its columns in that order and
    its trials in fold order. A trial's fold selected only some pairs; the
    others are zero, and a pair that no fold selected ranks at 0.

    Each fold is one game of its model, background and groups. Its groups
    are its selected columns split by pair, in (channel, chromophore) label
    order, each keeping its columns in selection order. A forest or
    boosting fold scores its coalitions by column pattern (_tree_game), any
    other fold by composed rows (_composed_game). Folds with at most
    FOLD_EXACT_MAX_GROUPS groups are enumerated exactly, the others
    estimated by the kernel regression. A fold's coalitions, weights,
    normal matrix and v(∅) are made once and shared by its trials, which
    get the values exact_shapley or kernel_shap would give each of them.
    """
    pairs = cv.features.pairs
    phi = np.zeros((sum(len(f.test_x) for f in cv.folds), len(pairs)))
    trial = 0
    for fold in cv.folds:
        block = np.asarray(fold.selected) // cv.features.block_width
        players = sorted(set(block.tolist()), key=pairs.__getitem__)
        groups = [np.flatnonzero(block == p) for p in players]
        background = build_background(fold.train_x)
        if isinstance(fold.model, _TreeModel):
            game = _tree_game(fold.model, background, groups)
        else:
            game = _composed_game(fold.model.predict_score, background, groups)
        if len(groups) <= FOLD_EXACT_MAX_GROUPS:
            explain = _exact_explainer(game)
        else:
            explain = _kernel_explainer(game, n_samples, seed)
        for row in fold.test_x:
            phi[trial, players] = explain(row).phi
            trial += 1
    return channel_importance(phi, pairs), phi
