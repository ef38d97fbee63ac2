"""Isolation forest trained on feature vectors, built from scratch.

Each tree partitions a uniform subsample (drawn without replacement) by
choosing a random attribute with nonzero range and a uniform split value
between that attribute's minimum and maximum, until a node holds one point,
has only constant attributes or reaches depth ceil(log2(subsample)). A
point's anomaly score is

    s(x) = 2 ** (-E[h(x)] / c(psi))

where h(x) is the isolation path depth plus the average-BST adjustment
c(n) = 2 H(n-1) - 2 (n-1)/n for unresolved leaves of size n, and psi is the
subsample size. Higher scores are more anomalous.

Draw protocol. Tree i draws from its own generator ``rng_from(seed, "tree",
i)``: first its subsample, ``choice(n, size=psi, replace=False)``; then, for
each depth in turn, one ``random((k, F + 1))`` for the k nodes of that depth
that can split (size >= 2, depth below the limit), in left-to-right order
(no call when k = 0), with F the number of features. A node's row of F keys
orders its features by ascending key (ties, of probability 0, go to the
lower feature index) and its last entry u places the threshold. The split feature is the first feature in
that order whose range within the node is nonzero; a node whose F features
are all constant becomes a leaf. The threshold is ``lo + (hi - lo) * u``,
the formula ``Generator.uniform(lo, hi)`` evaluates, raised to
``nextafter(lo, hi)`` if rounding leaves it at lo, so it lies in (lo, hi]
and both children are non-empty. A tree therefore depends only on the data,
psi, the seed and i, never on how many trees are grown or in which chunks.

This draws the same distribution as choosing uniformly among the
non-constant features and then splitting uniformly on the chosen one: i.i.d.
uniform keys put the features in a uniformly random order, and the first
non-constant feature of a uniformly random order is uniform over the
non-constant features. The forest is grown level by level, a chunk of trees
at a time: the data are held feature-major, each open node's points stay
contiguous in one index array, each node reduces only the column it tries
(``np.minimum.reduceat`` / ``np.maximum.reduceat`` over the node segments,
a further column only where the tried one is constant), and a stable
partition moves every node's points into its two children. Nodes are
numbered breadth-first within each tree, so each child follows its parent.

Packed layout. A forest stores the nodes of all its trees in five flat
arrays (``feature``, ``threshold``, ``left``, ``right``, ``size``), tree
after tree, with ``roots[i]`` the offset of tree i's root. Child indices are
global positions in those arrays, and every node index is int32. A leaf's
``left`` and ``right`` both point at the leaf itself and its ``feature`` is
0, so routing a point through a leaf is a harmless comparison that keeps it
where it is. The packed arrays are the only copy of the nodes. The
per-tree-view form (``model.trees[i]``, and the model file's columns over
all trees) is rebuilt from them on demand, with -1 marking leaves and
children numbered within their tree; a fitted or loaded forest enters the
packed layout only through ``_pack``, which checks it.

Scoring walks every (tree, point) pair of a batch at once (a very large
batch in chunks of points) for a fixed number of levels, the forest's
deepest leaf depth (at most ceil(log2(psi)) for a fitted forest): each level
gathers the current nodes' split, picks a child with one ``np.where`` and
adds 1 to the depth of every pair that moved, which is exactly the pairs
still at an internal node. Then h = depth + c(leaf size).

The per-tree path lengths are summed in tree order, one tree at a time.
NumPy's ``sum`` over the tree axis can reduce pairwise (it does for a batch
of one), which rounds differently from the sequential sum, so a point would
score differently alone than inside a batch, and streamed scores would stop
matching ``score_stream`` bit for bit.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IncompatibleModelError
from .seeding import rng_from

DEFAULT_NUM_TREES = 100
DEFAULT_SUBSAMPLE = 256
# Most (tree, point) pairs one scoring walk advances together.
_CHUNK_PAIRS = 1 << 18
# Most subsample points one chunk of trees is grown with.
_CHUNK_POINTS = 1 << 17


def harmonic_number(n: int) -> float:
    """Exact n-th harmonic number (float sum; n is small in practice)."""
    if n <= 0:
        return 0.0
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search path length c(n) in a BST of n points."""
    if n <= 1:
        return 0.0
    return 2.0 * harmonic_number(n - 1) - 2.0 * (n - 1) / n


@dataclass
class IsolationTree:
    """One isolation tree in structure-of-arrays form, with node indices
    local to the tree: the per-tree view of a packed forest.

    ``feature[i] == -1`` marks node i as a leaf holding ``size[i]`` training
    points; internal nodes route on ``point[feature] < threshold``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    size: np.ndarray


NODE_COLUMNS = ("feature", "threshold", "left", "right", "size")


def _column(nodes, name: str, kinds: str) -> np.ndarray:
    """``nodes[name]`` as a flat array whose dtype kind is in ``kinds``."""
    try:
        array = np.asarray(nodes[name])
    except KeyError:
        raise IncompatibleModelError(f"isolation forest is missing {name!r}") from None
    except (TypeError, ValueError) as exc:
        raise IncompatibleModelError(f"isolation forest {name!r} is not a flat list: {exc}") from exc
    if array.ndim != 1 or (array.size and array.dtype.kind not in kinds):
        raise IncompatibleModelError(f"isolation forest {name!r} is not a flat list of numbers")
    return array


def _pack(nodes, feature_count: int, subsample_size: int):
    """Check a forest given in the per-tree-view form and return its packed
    arrays (feature, threshold, left, right, size, roots, levels), where
    ``levels`` is the deepest leaf depth. Fitting and loading both build
    their forests through here.

    ``nodes`` maps each of ``NODE_COLUMNS`` to one flat sequence over all
    trees, tree after tree, and ``"roots"`` to the position of each tree's
    first node. A leaf has feature, left and right all -1; an internal node
    splits on a feature below ``feature_count`` and its children are
    positions within its tree, after it. Every node but a root has exactly
    one parent, and every size lies in [1, subsample_size]. Anything else
    raises :class:`IncompatibleModelError`.
    """
    feature, left, right, size, roots = (
        _column(nodes, name, "i").astype(np.int64)
        for name in ("feature", "left", "right", "size", "roots"))
    threshold = _column(nodes, "threshold", "if").astype(float)
    n = len(feature)
    if any(len(column) != n for column in (threshold, left, right, size)):
        raise IncompatibleModelError("isolation forest columns differ in length")
    if len(roots) == 0 or roots[0] != 0 or np.any(np.diff(roots) <= 0) or roots[-1] >= n:
        raise IncompatibleModelError("isolation forest roots must start at 0 and increase, "
                                     "one per non-empty tree")
    if np.any(feature < -1) or np.any(feature >= feature_count):
        raise IncompatibleModelError(f"isolation tree splits on a feature outside [0, {feature_count})")
    if np.any(size < 1) or np.any(size > subsample_size):
        raise IncompatibleModelError(f"isolation tree node size outside [1, {subsample_size}]")

    counts = np.diff(np.append(roots, n))
    node = np.arange(n)
    tree_start = np.repeat(roots, counts)
    tree_end = tree_start + np.repeat(counts, counts)
    leaf = feature == -1
    if np.any(leaf & ((left != -1) | (right != -1))):
        raise IncompatibleModelError("isolation tree leaf with a child")
    left, right = left + tree_start, right + tree_start
    for child in (left, right):
        if not np.all(leaf | ((child > node) & (child < tree_end))):
            raise IncompatibleModelError("isolation tree child index outside its subtree")
    parents = np.bincount(np.concatenate([left[~leaf], right[~leaf]]), minlength=n)
    parents[roots] += 1  # a root has none
    if np.any(parents != 1):
        raise IncompatibleModelError("isolation tree node without exactly one parent")

    left[leaf] = right[leaf] = node[leaf]
    feature[leaf] = 0
    feature, left, right, size, roots = (
        a.astype(np.int32) for a in (feature, left, right, size, roots))
    levels = 0
    frontier = roots
    while True:
        frontier = frontier[left[frontier] != frontier]
        if frontier.size == 0:
            break
        frontier = np.concatenate([left[frontier], right[frontier]])
        levels += 1
    return feature, threshold, left, right, size, roots, levels


class _TreeViews(Sequence):
    """``model.trees``: per-tree :class:`IsolationTree` copies rebuilt from
    the packed arrays on access."""

    def __init__(self, model):
        self._model = model

    def __len__(self) -> int:
        return len(self._model.roots)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        m = self._model
        i = range(len(m.roots))[i]
        stop = int(m.roots[i + 1]) if i + 1 < len(m.roots) else len(m.feature)
        return IsolationTree(*m._view_columns(int(m.roots[i]), stop))


class IsolationForestModel:
    """A fitted forest in the packed layout described in the module
    docstring. ``nodes`` holds the forest in the per-tree-view form that
    :func:`_pack` checks and packs; ``model.trees`` reads it back tree by
    tree."""

    def __init__(self, nodes, subsample_size: int, feature_count: int, normalizer_c: float,
                 seed: int, num_training_samples: int, feature_manifest_hash: str | None = None):
        (self.feature, self.threshold, self.left, self.right, self.size,
         self.roots, self.levels) = _pack(nodes, feature_count, subsample_size)
        self.subsample_size = subsample_size
        self.feature_count = feature_count
        self.normalizer_c = normalizer_c
        self.seed = seed
        self.num_training_samples = num_training_samples
        self.feature_manifest_hash = feature_manifest_hash
        self._leaf_adjust = None

    @property
    def trees(self) -> _TreeViews:
        return _TreeViews(self)

    def _view_columns(self, start: int, stop: int):
        """``NODE_COLUMNS`` of nodes start..stop-1 in the per-tree-view form:
        -1 for a leaf's feature and children, children local to their tree."""
        nodes = slice(start, stop)
        node = np.arange(start, stop)
        tree_start = self.roots[np.searchsorted(self.roots, node, side="right") - 1]
        leaf = self.left[nodes] == node
        return (np.where(leaf, -1, self.feature[nodes]), self.threshold[nodes].copy(),
                np.where(leaf, -1, self.left[nodes] - tree_start),
                np.where(leaf, -1, self.right[nodes] - tree_start), self.size[nodes].copy())

    def leaf_adjust_table(self) -> np.ndarray:
        if self._leaf_adjust is None:
            self._leaf_adjust = np.array(
                [average_path_length(n) for n in range(self.subsample_size + 1)]
            )
        return self._leaf_adjust

    def to_json_dict(self) -> dict:
        columns = self._view_columns(0, len(self.feature))
        return {
            "subsample_size": int(self.subsample_size),
            "feature_count": int(self.feature_count),
            "normalizer_c": float(self.normalizer_c),
            "seed": int(self.seed),
            "num_training_samples": int(self.num_training_samples),
            "feature_manifest_hash": self.feature_manifest_hash,
            **{name: column.tolist() for name, column in zip(NODE_COLUMNS, columns)},
            "roots": self.roots.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "IsolationForestModel":
        try:
            scalars = {
                "subsample_size": int(d["subsample_size"]),
                "feature_count": int(d["feature_count"]),
                "normalizer_c": float(d["normalizer_c"]),
                "seed": int(d["seed"]),
                "num_training_samples": int(d["num_training_samples"]),
                "feature_manifest_hash": d.get("feature_manifest_hash"),
            }
        except KeyError as exc:
            raise IncompatibleModelError(f"isolation forest is missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise IncompatibleModelError(f"malformed isolation forest: {exc}") from exc
        return cls(nodes=d, **scalars)


def _grow(columns: np.ndarray, rngs, subsample: int, depth_limit: int):
    """Grow one tree per generator in ``rngs`` on the feature-major data
    ``columns`` (features x rows), all of them together one depth level at a
    time, following the draw protocol in the module docstring. Returns what
    :func:`_assemble` does."""
    num_features, n = columns.shape
    flat = columns.ravel()
    num_trees = len(rngs)
    # Row indices of the points of the open nodes (size >= 2, above the depth
    # limit) at the current level, each node's points contiguous, nodes tree
    # by tree and left to right.
    points = np.concatenate([rng.choice(n, size=subsample, replace=False) for rng in rngs])
    tree = np.arange(num_trees)
    size = np.full(num_trees, subsample)
    levels = []  # per depth: (tree, size, feature, threshold) of each node
    for depth in range(depth_limit + 1):
        feature = np.full(len(tree), -1)
        threshold = np.zeros(len(tree))
        levels.append((tree, size, feature, threshold))
        is_open = size >= 2
        if depth == depth_limit or not is_open.any():
            break
        nodes = np.flatnonzero(is_open)
        counts = size[nodes]
        per_tree = np.bincount(tree[nodes], minlength=num_trees)
        draws = np.concatenate([rngs[t].random((k, num_features + 1))
                                for t, k in enumerate(per_tree) if k])
        keys, uniform = draws[:, :num_features], draws[:, num_features]
        chosen = keys.argmin(axis=1)
        lo, hi = np.empty(len(nodes)), np.empty(len(nodes))
        values = np.empty(len(points))
        splits = np.zeros(len(nodes), dtype=bool)
        # Reduce the node's first feature in its random order; where that
        # column is constant, try the next one, for those nodes only.
        pending, at, pending_counts = np.arange(len(nodes)), np.arange(len(points)), counts
        for _ in range(num_features):
            column = chosen[pending]
            pending_values = flat[np.repeat(column * n, pending_counts) + points[at]]
            values[at] = pending_values
            starts = np.cumsum(pending_counts) - pending_counts
            lo[pending] = np.minimum.reduceat(pending_values, starts)
            hi[pending] = np.maximum.reduceat(pending_values, starts)
            constant = ~(hi[pending] > lo[pending])
            splits[pending[~constant]] = True
            if not constant.any():
                break
            at = at[np.repeat(constant, pending_counts)]
            pending, pending_counts = pending[constant], pending_counts[constant]
            keys[pending, column[constant]] = np.inf
            chosen[pending] = keys[pending].argmin(axis=1)

        # Nodes whose features are all constant stay leaves; the rest split.
        keep = np.repeat(splits, counts)
        points, values = points[keep], values[keep]
        nodes, counts, chosen = nodes[splits], counts[splits], chosen[splits]
        lo, hi = lo[splits], hi[splits]
        cut = lo + (hi - lo) * uniform[splits]
        low = cut <= lo
        cut[low] = np.nextafter(lo[low], hi[low])
        feature[nodes] = chosen
        threshold[nodes] = cut

        # Stable partition of each node's points: left child's, then right's.
        goes_left = values < np.repeat(cut, counts)
        child = 2 * np.repeat(np.arange(len(nodes)), counts) + ~goes_left
        partitioned = points[np.argsort(child, kind="stable")]
        left_counts = np.add.reduceat(goes_left, np.cumsum(counts) - counts, dtype=np.intp)

        tree = np.repeat(tree[nodes], 2)
        size = np.column_stack([left_counts, counts - left_counts]).ravel()
        points = partitioned[np.repeat(size >= 2, size)]

    return _assemble(levels, num_trees)


def _assemble(levels, num_trees: int):
    """The ``NODE_COLUMNS`` of the grown trees in the per-tree-view form,
    tree after tree with local breadth-first numbering, and each tree's node
    count, from the per-depth node records of :func:`_grow`. The children of
    the k-th internal node of a depth are nodes 2k and 2k + 1 of the next."""
    tree, size, feature, threshold = (np.concatenate(c) for c in zip(*levels))
    level_start = np.cumsum([0] + [len(level[0]) for level in levels])
    first_child = np.full(len(tree), -1)
    for depth, (_, _, level_feature, _) in enumerate(levels[:-1]):
        internal = np.flatnonzero(level_feature >= 0)
        first_child[level_start[depth] + internal] = level_start[depth + 1] + 2 * np.arange(len(internal))
    # Stable by tree: each tree's nodes depth by depth, left to right.
    order = np.argsort(tree, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    tree_nodes = np.bincount(tree, minlength=num_trees)
    tree_start = np.cumsum(tree_nodes) - tree_nodes
    internal = first_child >= 0
    left = np.full(len(tree), -1)
    left[internal] = position[first_child[internal]] - tree_start[tree[internal]]
    right = np.where(internal, left + 1, -1)
    return tuple(c[order] for c in (feature, threshold, left, right, size)), tree_nodes


def fit(data, num_trees: int = DEFAULT_NUM_TREES, subsample: int | None = None, seed: int = 0) -> IsolationForestModel:
    """Train an isolation forest on a (num_samples, num_features) array.

    ``subsample`` defaults to min(256, num_samples); each tree draws its own
    subsample without replacement and is grown to depth ceil(log2(subsample)).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ConfigError("training data must be a non-empty 2-D array")
    n = data.shape[0]
    if subsample is None:
        subsample = min(DEFAULT_SUBSAMPLE, n)
    if not 1 <= subsample <= n:
        raise ConfigError(f"subsample {subsample} must be in [1, {n}]")
    if num_trees < 1:
        raise ConfigError("num_trees must be >= 1")

    depth_limit = int(np.ceil(np.log2(subsample))) if subsample > 1 else 0
    columns = np.ascontiguousarray(data.T)

    step = max(1, _CHUNK_POINTS // subsample)
    chunks = []
    for first in range(0, num_trees, step):
        rngs = [rng_from(seed, "tree", i) for i in range(first, min(first + step, num_trees))]
        chunks.append(_grow(columns, rngs, subsample, depth_limit))
    chunk_columns, chunk_tree_nodes = zip(*chunks)
    nodes = {name: np.concatenate(c) for name, c in zip(NODE_COLUMNS, zip(*chunk_columns))}
    tree_nodes = np.concatenate(chunk_tree_nodes)
    nodes["roots"] = np.cumsum(tree_nodes) - tree_nodes

    return IsolationForestModel(
        nodes=nodes,
        subsample_size=int(subsample),
        feature_count=int(data.shape[1]),
        normalizer_c=average_path_length(int(subsample)),
        seed=int(seed),
        num_training_samples=n,
    )


def _path_length_sums(model: IsolationForestModel, pts: np.ndarray) -> np.ndarray:
    """Each point's path lengths h(x) summed over the trees in tree order."""
    flat = np.ascontiguousarray(pts).ravel()
    row_start = np.arange(pts.shape[0]) * pts.shape[1]
    node = np.repeat(model.roots[:, None], pts.shape[0], axis=1)
    depth = np.zeros(node.shape)
    for _ in range(model.levels):
        go_left = flat[row_start + model.feature[node]] < model.threshold[node]
        child = np.where(go_left, model.left[node], model.right[node])
        depth += child != node
        node = child
    path_lengths = depth + model.leaf_adjust_table()[model.size[node]]
    total = np.zeros(pts.shape[0])
    for row in path_lengths:
        total += row
    return total


def score_batch(model: IsolationForestModel, points) -> np.ndarray:
    """Anomaly scores in (0, 1) for a (batch, num_features) array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != model.feature_count:
        raise IncompatibleModelError(
            f"point dimension {pts.shape[1]} != model feature count {model.feature_count}"
        )
    # The walk holds a few arrays of trees x points; large batches go in
    # chunks so that memory stays bounded. Chunking cannot change a score,
    # because each point's sum is formed independently.
    total = np.empty(pts.shape[0])
    step = max(1, _CHUNK_PAIRS // len(model.roots))
    for start in range(0, pts.shape[0], step):
        total[start:start + step] = _path_length_sums(model, pts[start:start + step])
    mean_depth = total / len(model.roots)
    denom = model.normalizer_c if model.normalizer_c > 0 else 1.0
    return np.power(2.0, -mean_depth / denom)


def score(model: IsolationForestModel, point) -> float:
    """Anomaly score of a single feature vector."""
    return float(score_batch(model, np.asarray(point, dtype=float)[None, :])[0])
