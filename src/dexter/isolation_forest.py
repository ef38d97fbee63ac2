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

Packed layout. A forest stores the nodes of all its trees in flat arrays,
tree after tree: ``feature``, ``threshold``, ``size`` and ``kids``, the
children interleaved with ``kids[2 i]`` node i's right child and
``kids[2 i + 1]`` its left, so that a split's outcome indexes the child
directly. ``roots[i]`` is the offset of tree i's root. Child indices are
global positions. Every node index is int32 in the file; in memory the two
arrays the walk gathers with, ``feature`` and ``kids``, are ``intp``, which
``np.take`` indexes with as they are, while ``size`` and ``roots`` stay
int32. A leaf's children are the leaf itself and its ``feature`` is 0, so
routing a point through a leaf is a harmless comparison that keeps it where
it is. These arrays are the only copy of the nodes; ``left`` and ``right``
are strided views of ``kids``. The per-tree-view form (``model.trees[i]``,
and the model file's columns over all trees) is rebuilt from them on demand,
in int32 but for ``threshold``, with -1 marking leaves and children
numbered within their tree; a fitted or loaded forest enters the packed
layout only through ``_pack``, which checks it. The model file holds each
column of that form as one base64 string of its little-endian bytes, int32
for ``feature``, ``left``, ``right``, ``size`` and ``roots`` and float64 for
``threshold`` (``errors.encode_column``), so that saving and loading a
forest handle six strings instead of one JSON number per node; the reader,
``errors.read_field``, also takes the JSON lists that files written before
this hold.

Memory. The node columns stay int32 (float64 for ``threshold``) from build
to file and back, but for the packed ``feature`` and ``kids``, and no stage
holds more than one column's temporaries beyond its result. ``_grow`` keeps
a level's working arrays in ``_split_level`` and the int32 point indices of
the open nodes, and returns its per-depth records, which ``_assemble``
scatters into the tree-by-tree columns, dropping each depth as it goes.
``fit`` joins the chunks column by column, releasing each chunk's copy, and
``_pack`` checks the columns in the dtype they arrive in and packs
``threshold``, ``size`` and ``roots`` without copies; ``feature`` and
``kids`` are new ``intp`` arrays, 12 bytes a node more than int32 would
take. A model file's binary columns load as read-only int32 and float64
views of their decoded bytes, and ``to_json_dict`` rebuilds and encodes one
int32 column at a time.

Scoring. A point's h in one tree is the depth of the leaf its walk ends at
plus c(leaf size), so a forest keeps one path length per leaf, derived on
first use. Two walks give each point's sum of h over the trees; they make
the same comparisons and the same additions in the same order, so they agree
bit for bit, and a NaN feature value compares false and routes right in both.

- A batch of many (tree, point) pairs is walked with NumPy, every pair of a
  chunk of points together, for a fixed number of levels: the forest's
  deepest leaf depth, at most ceil(log2(psi)) for a fitted forest. A level is
  ``node = kids[2 node + (x[feature[node]] < threshold[node])]``, eight
  passes into ``intp``, float64 and bool buffers reused from level to level
  and from chunk to chunk (33 bytes a pair): ``at = feature[node]``, ``at +=
  row``, ``value = x[at]``, ``threshold[node]``, the comparison, ``at = node
  + node``, ``at += go_left`` and ``node = kids[at]``. Each of the four
  gathers is an ``np.take`` with an ``intp`` index, which it uses without a
  cast copy. A pair that has reached its leaf stays there.
- A batch of at least 2 x ``_THREAD_PAIRS`` pairs is split into contiguous
  ranges of points, at most one per CPU the process may run on
  (``os.sched_getaffinity``), each of at least ``_THREAD_PAIRS`` pairs and
  with chunks of at least as many. The calling thread walks the first range
  and one thread started for the call each of the others; NumPy releases
  the interpreter lock inside each pass. The caller allocates every
  thread's buffers, together at most ``_CHUNK_PAIRS`` pairs as for one
  thread, and each thread writes its points' sums into its own slice of the
  result, so no other thread allocates an array. No thread outlives the
  call, so a forked child inherits none.
- A batch of at most ``_PYTHON_WALK_PAIRS`` pairs, such as one point of a
  small forest as online monitoring scores it, is walked tree by tree in
  plain Python, which skips the NumPy walk's fixed cost of some eighty calls.
  It walks the forest's nested-tuple form (``nested_trees``): an internal
  node is ``(feature, threshold, left, right)`` and a leaf is its path
  length, so a step is one tuple unpacking and one comparison, with no index
  arithmetic. The form is built once per forest, on the first such batch, in
  one reverse sweep over the packed arrays (children follow their parents,
  so no recursion, however deep a tree), and is never built on load nor
  saved.

The per-tree path lengths are summed in tree order from 0.0, one tree at a
time (``_sum_over_trees``). NumPy's ``sum`` over the tree axis reduces
pairwise for a batch of one, which rounds differently from the sequential
sum, so a point would score differently alone than inside a batch, and
streamed scores would stop matching ``score_stream`` bit for bit. Each
point's sum is formed on its own, so neither chunks nor threads change a
score: scores do not depend on the number of CPUs.
"""

import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, IncompatibleModelError, encode_column, read_field
from .seeding import rng_from

DEFAULT_NUM_TREES = 100
DEFAULT_SUBSAMPLE = 256
# Largest subsample ``fit`` takes and a model file may give; the acceptance
# configs use 8000. It keeps every size c(n) sees within the range over which
# the series of ``harmonic_number`` is tested against the exact sum.
MAX_SUBSAMPLE_SIZE = 10**7
# Most (tree, point) pairs the buffers of one NumPy scoring walk hold, over
# all its threads together; they take 33 bytes a pair. README "Forest
# scoring" gives the timings that chose it.
_CHUNK_PAIRS = 1 << 16
# Fewest (tree, point) pairs a thread of a split batch walks and its buffers
# hold, so that only batches of at least twice as many are split and at most
# _CHUNK_PAIRS // _THREAD_PAIRS threads walk one. Two threads scored a batch
# slower than one below about 10k pairs and faster from 16k on; README
# "Forest scoring" gives the timings.
_THREAD_PAIRS = 1 << 14
# Most (tree, point) pairs a batch may hold to be walked in plain Python.
# Below the pair count at which the two walks cost the same, the NumPy walk's
# fixed cost outweighs the plain-Python walk's cost per pair. The bound stays
# well below that crossover because the first plain-Python walk of a forest
# also builds its nested form, which a forest scored a few points at a time,
# such as ``score_stream`` on an episode of under 20 steps, repays only after
# dozens of calls. README "Forest scoring" gives the measurements.
_PYTHON_WALK_PAIRS = 64
# Most subsample points one chunk of trees is grown with.
_CHUNK_POINTS = 1 << 17
# Largest n whose harmonic number is summed term by term (512 KiB of float64
# reciprocals); above it c(n) takes the asymptotic series in constant time, so
# a model file's first score costs time linear in its nodes, however large
# its leaf sizes.
_RECIPROCAL_BLOCK = 1 << 16


def harmonic_number(n: int) -> float:
    """The n-th harmonic number: bit for bit
    ``np.sum(1.0 / np.arange(1, n + 1))`` up to ``_RECIPROCAL_BLOCK``, and
    above it ln n + gamma + 1/(2n) - 1/(12n^2) + 1/(120n^4), whose dropped
    terms there are below 1e-31, far under one ulp of the sum."""
    if n <= 0:
        return 0.0
    if n <= _RECIPROCAL_BLOCK:
        return float(np.add.reduce(1.0 / np.arange(1, n + 1)))
    x = float(n)
    return math.log(x) + np.euler_gamma + 1.0 / (2.0 * x) - 1.0 / (12.0 * x * x) + 1.0 / (120.0 * x**4)


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
# The element kind of each column of a forest document.
COLUMN_KINDS = {name: float if name == "threshold" else int for name in NODE_COLUMNS + ("roots",)}


def _pack(nodes, feature_count: int, subsample_size: int):
    """Check a forest given in the per-tree-view form and return its packed
    arrays (feature, threshold, kids, size, roots). Fitting and loading both
    build their forests through here.

    ``nodes`` maps each of ``NODE_COLUMNS`` to one flat array over all
    trees, tree after tree, of integers (finite floats for ``threshold``),
    and ``"roots"`` to the position of each tree's first node. A leaf has
    feature, left and right all -1; an internal node splits on a feature
    below ``feature_count`` and its children are positions within its tree,
    after it. Every node but a root has exactly one parent, every size lies
    in [1, subsample_size], a root holds subsample_size points and an
    internal node as many as its two children together, as in every fitted
    tree; subsample_size is at most ``MAX_SUBSAMPLE_SIZE``. Anything else
    raises :class:`IncompatibleModelError`.

    The columns are checked in the dtype they arrive in, int32 and float64
    from ``fit`` and from a model file's binary columns. ``threshold``,
    ``size`` and ``roots`` are packed without a copy when they are already
    float64 and int32; ``feature`` and ``kids``, the arrays the NumPy walk
    gathers with, are new ``intp`` arrays, so that no ``np.take`` of the walk
    casts its index.
    """
    feature, left, right, size, roots = (
        np.asarray(nodes[name]) for name in ("feature", "left", "right", "size", "roots"))
    threshold = np.asarray(nodes["threshold"], dtype=float)
    n = len(feature)
    if subsample_size > MAX_SUBSAMPLE_SIZE:
        raise IncompatibleModelError(f"isolation forest subsample size {subsample_size} "
                                     f"above the maximum {MAX_SUBSAMPLE_SIZE}")
    if any(len(column) != n for column in (threshold, left, right, size)):
        raise IncompatibleModelError("isolation forest columns differ in length")
    # Compared, not subtracted: a difference of int32 values can wrap.
    if len(roots) == 0 or roots[0] != 0 or np.any(roots[1:] <= roots[:-1]) or roots[-1] >= n:
        raise IncompatibleModelError("isolation forest roots must start at 0 and increase, "
                                     "one per non-empty tree")
    if np.any(feature < -1) or np.any(feature >= feature_count):
        raise IncompatibleModelError(f"isolation tree splits on a feature outside [0, {feature_count})")
    if np.any(size < 1) or np.any(size > subsample_size):
        raise IncompatibleModelError(f"isolation tree node size outside [1, {subsample_size}]")
    if np.any(size[roots] != subsample_size):
        raise IncompatibleModelError(f"isolation tree root size other than {subsample_size}")

    leaf = feature == -1
    if np.any(leaf & ((left != -1) | (right != -1))):
        raise IncompatibleModelError("isolation tree leaf with a child")
    kids = _kids(left, right, leaf, roots)
    # A child lies after its parent within its tree, so it is no root: every
    # other node has exactly one parent when the internal nodes' child slots
    # are as many as those nodes and reach each of them.
    internal = ~leaf
    right_kids, left_kids = kids[0::2][internal], kids[1::2][internal]
    has_parent = np.zeros(n, dtype=bool)
    has_parent[right_kids] = has_parent[left_kids] = True
    if not 2 * len(left_kids) == np.count_nonzero(has_parent) == n - len(roots):
        raise IncompatibleModelError("isolation tree node without exactly one parent")
    if np.any(size[left_kids] + size[right_kids] != size[internal]):
        raise IncompatibleModelError("isolation tree node size other than its children's sum")

    feature = feature.astype(np.intp)
    feature[leaf] = 0
    size, roots = (a.astype(np.int32, copy=False) for a in (size, roots))
    return feature, threshold, kids, size, roots


def _kids(left, right, leaf, roots) -> np.ndarray:
    """The interleaved ``kids`` of a forest in the per-tree-view form, as
    global ``intp`` positions with a leaf's children the leaf itself. A child
    of an internal node that is not after it within its tree raises
    :class:`IncompatibleModelError`; it is checked against its node's
    position within the tree before any addition, which could wrap."""
    n = len(leaf)
    counts = np.diff(roots, append=n).astype(np.int32)
    tree_start = np.repeat(roots.astype(np.int32, copy=False), counts)
    local = np.arange(n, dtype=np.int32) - tree_start
    tree_nodes = np.repeat(counts, counts)
    for child in (left, right):
        if not np.all(leaf | ((child > local) & (child < tree_nodes))):
            raise IncompatibleModelError("isolation tree child index outside its subtree")
    kids = np.empty(2 * n, dtype=np.intp)
    leaves = np.flatnonzero(leaf)
    for half, child in ((kids[0::2], right), (kids[1::2], left)):
        np.add(child, tree_start, out=half)
        half[leaves] = leaves
    return kids


def _node_depths(kids: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The depth of every node of a packed forest, a root's being 0."""
    depth = np.zeros(len(kids) // 2, dtype=np.int32)
    frontier, level = roots, 0
    while True:
        frontier = frontier[kids[2 * frontier] != frontier]
        if frontier.size == 0:
            return depth
        level += 1
        frontier = kids[np.concatenate([2 * frontier, 2 * frontier + 1])]
        depth[frontier] = level


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
        feature, threshold, left, right, size = m._view_columns(int(m.roots[i]), stop)
        return IsolationTree(feature, threshold.copy(), left, right, size.copy())


class IsolationForestModel:
    """A fitted forest in the packed layout described in the module
    docstring. ``nodes`` holds the forest in the per-tree-view form that
    :func:`_pack` checks and packs; ``model.trees`` reads it back tree by
    tree."""

    def __init__(self, nodes, subsample_size: int, feature_count: int, seed: int,
                 num_training_samples: int):
        (self.feature, self.threshold, self.kids, self.size,
         self.roots) = _pack(nodes, feature_count, subsample_size)
        self.subsample_size = subsample_size
        self.feature_count = feature_count
        # c(psi), the path length that normalises every score.
        self.normalizer_c = average_path_length(subsample_size)
        self.seed = seed
        self.num_training_samples = num_training_samples
        self._path_lengths = None
        self._nested = None

    @property
    def trees(self) -> _TreeViews:
        return _TreeViews(self)

    @property
    def levels(self) -> int:
        """The deepest leaf's depth, found with the path lengths."""
        self.path_length_table()
        return self._levels

    @property
    def left(self) -> np.ndarray:
        return self.kids[1::2]

    @property
    def right(self) -> np.ndarray:
        return self.kids[0::2]

    def _view_columns(self, start: int, stop: int):
        """Yields the ``NODE_COLUMNS`` of nodes start..stop-1, whole trees,
        in the per-tree-view form, one int32 or float64 array at a time (the
        file's dtypes, whatever the packed ones): -1 for a leaf's feature and
        children, children local to their tree. ``threshold`` and ``size``
        are views of the packed arrays."""
        nodes = slice(start, stop)
        leaf = self.left[nodes] == np.arange(start, stop)
        roots = self.roots[(self.roots >= start) & (self.roots < stop)]
        tree_start = np.repeat(roots, np.diff(roots, append=stop))
        yield np.where(leaf, -1, self.feature[nodes]).astype(np.int32)
        yield self.threshold[nodes]
        for child in (self.left, self.right):
            yield np.where(leaf, -1, child[nodes] - tree_start).astype(np.int32)
        yield self.size[nodes]

    def path_length_table(self) -> np.ndarray:
        """The path length h of a point whose walk ends at each node: a
        leaf's depth plus c(size), c evaluated once per distinct leaf size.
        Walks end only at leaves, so an internal node holds its depth alone.
        Derived on first use and kept."""
        if self._path_lengths is None:
            leaf = self.right == np.arange(len(self.feature))
            sizes, at = np.unique(self.size[leaf], return_inverse=True)
            depth = _node_depths(self.kids, self.roots)
            self._levels = int(depth.max())
            table = depth.astype(float)
            table[leaf] += np.array([average_path_length(n) for n in sizes.tolist()])[at]
            self._path_lengths = table
        return self._path_lengths

    def nested_trees(self) -> tuple:
        """The forest as nested tuples, one per tree in tree order, for the
        plain-Python walk: an internal node is ``(feature, threshold, left,
        right)`` and a leaf is its path length, one float object per distinct
        value. Built on first use and kept; never serialised."""
        if self._nested is None:
            kids, feature, threshold, path_length = (
                memoryview(a) for a in (self.kids, self.feature, self.threshold,
                                        self.path_length_table()))
            nodes = [None] * len(feature)
            leaves = {}
            # Children follow their parents (``_pack`` checks it), so one
            # reverse sweep finds both children built, however deep the tree.
            for i in range(len(nodes) - 1, -1, -1):
                right = kids[i + i]
                if right == i:
                    h = path_length[i]
                    nodes[i] = leaves.setdefault(h, h)
                else:
                    nodes[i] = (feature[i], threshold[i], nodes[kids[i + i + 1]], nodes[right])
            self._nested = tuple(nodes[root] for root in self.roots.tolist())
        return self._nested

    def to_json_dict(self) -> dict:
        """The forest document, each node column encoded from the packed
        arrays as it is rebuilt, so that one column's temporaries are held
        at a time."""
        columns = chain(self._view_columns(0, len(self.feature)), [self.roots])
        return {
            "subsample_size": int(self.subsample_size),
            "feature_count": int(self.feature_count),
            "seed": int(self.seed),
            "num_training_samples": int(self.num_training_samples),
            **{name: encode_column(column, kind)
               for (name, kind), column in zip(COLUMN_KINDS.items(), columns)},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "IsolationForestModel":
        """The forest of a model document. Its node columns are base64
        strings or, in documents written before those, JSON lists. Older
        documents also hold ``normalizer_c`` and ``feature_manifest_hash``;
        both are ignored."""
        owner = "isolation forest"
        nodes = {name: read_field(d, name, owner, kind, ndim=1) for name, kind in COLUMN_KINDS.items()}
        return cls(nodes, **{name: read_field(d, name, owner, int) for name in
                             ("subsample_size", "feature_count", "seed", "num_training_samples")})


def _grow(columns: np.ndarray, rngs, subsample: int, depth_limit: int) -> list:
    """Grow one tree per generator in ``rngs`` on the feature-major data
    ``columns`` (features x rows), all of them together one depth level at a
    time, following the draw protocol in the module docstring. Returns, per
    depth, the (tree, size, feature, threshold) of its nodes, int32 but for
    the float64 thresholds: what :func:`_assemble` takes. A level's working
    arrays live in :func:`_split_level`, so none outlives its level."""
    n = columns.shape[1]
    num_trees = len(rngs)
    # Row indices of the points of the open nodes (size >= 2, above the depth
    # limit) at the current level, each node's points contiguous, nodes tree
    # by tree and left to right; int32 unless the rows outnumber its range.
    points = np.empty(num_trees * subsample, dtype=np.int32 if n <= np.iinfo(np.int32).max else np.intp)
    for t, rng in enumerate(rngs):
        points[t * subsample:(t + 1) * subsample] = rng.choice(n, size=subsample, replace=False)
    tree = np.arange(num_trees, dtype=np.int32)
    size = np.full(num_trees, subsample, dtype=np.int32)
    levels = []
    for depth in range(depth_limit + 1):
        feature = np.full(len(tree), -1, dtype=np.int32)
        threshold = np.zeros(len(tree))
        levels.append((tree, size, feature, threshold))
        if depth == depth_limit or not (size >= 2).any():
            break
        tree, size, points = _split_level(columns, rngs, tree, size, points, feature, threshold)
    return levels


def _split_level(columns: np.ndarray, rngs, tree, size, points, feature, threshold):
    """Split the open nodes of one level, writing each split's feature and
    threshold into ``feature`` and ``threshold``; returns the next level's
    (tree, size, points)."""
    nodes = np.flatnonzero(size >= 2)
    counts = size[nodes]
    # Each tree's key rows, drawn straight into one array in tree order.
    draws = np.empty((len(nodes), columns.shape[0] + 1))
    start = 0
    for t, k in enumerate(np.bincount(tree[nodes], minlength=len(rngs)).tolist()):
        if k:
            rngs[t].random(out=draws[start:start + k])
            start += k
    splits, chosen, lo, hi, values = _split_features(columns, draws[:, :-1], counts, points)

    # Nodes whose features are all constant stay leaves; the rest split.
    keep = np.repeat(splits, counts)
    points, values = points[keep], values[keep]
    nodes, counts, chosen = nodes[splits], counts[splits], chosen[splits]
    lo, hi = lo[splits], hi[splits]
    cut = lo + (hi - lo) * draws[splits, -1]
    low = cut <= lo
    cut[low] = np.nextafter(lo[low], hi[low])
    feature[nodes] = chosen
    threshold[nodes] = cut

    # Stable partition of each node's points: left child's, then right's.
    goes_left = values < np.repeat(cut, counts)
    child = np.repeat(np.arange(0, 2 * len(nodes), 2, dtype=np.int32), counts)
    child += ~goes_left
    partitioned = points[np.argsort(child, kind="stable")]
    left_counts = np.add.reduceat(goes_left, np.cumsum(counts) - counts, dtype=np.int32)
    size = np.column_stack([left_counts, counts - left_counts]).ravel()
    return np.repeat(tree[nodes], 2), size, partitioned[np.repeat(size >= 2, size)]


def _split_features(columns: np.ndarray, keys, counts, points):
    """The split feature of each open node, the first in the order of its
    row of ``keys`` whose range within the node is nonzero: (splits,
    chosen, lo, hi, values), with ``splits`` false for a node whose
    features are all constant, ``lo`` and ``hi`` the chosen feature's range
    and ``values`` each point's value of its node's chosen feature."""
    n = columns.shape[1]
    flat = columns.ravel()
    chosen = keys.argmin(axis=1)
    lo, hi = np.empty(len(counts)), np.empty(len(counts))
    values = np.empty(len(points))
    splits = np.zeros(len(counts), dtype=bool)
    # Reduce the node's first feature in its random order; where that
    # column is constant, try the next one, for those nodes only.
    # ``at`` picks the pending nodes' points: on the first pass all of them,
    # through ``...``, which indexes without a copy.
    pending, at, pending_counts = np.arange(len(counts)), ..., counts
    for _ in range(columns.shape[0]):
        column = chosen[pending]
        offsets = np.repeat(column * n, pending_counts)
        offsets += points[at]
        pending_values = values[at] = flat[offsets]
        starts = np.cumsum(pending_counts) - pending_counts
        lo[pending] = np.minimum.reduceat(pending_values, starts)
        hi[pending] = np.maximum.reduceat(pending_values, starts)
        constant = ~(hi[pending] > lo[pending])
        splits[pending[~constant]] = True
        if not constant.any():
            break
        retry = np.repeat(constant, pending_counts)
        at = np.flatnonzero(retry) if at is ... else at[retry]
        pending, pending_counts = pending[constant], pending_counts[constant]
        keys[pending, column[constant]] = np.inf
        chosen[pending] = keys[pending].argmin(axis=1)
    return splits, chosen, lo, hi, values


def _assemble(levels: list, num_trees: int):
    """The ``NODE_COLUMNS`` of the grown trees in the per-tree-view form, as
    a list of int32 arrays but for the float64 thresholds, tree after tree
    with local breadth-first numbering, and each tree's node count, from the
    per-depth node records of :func:`_grow`, which it empties as it goes.
    The children of the k-th internal node of a depth are nodes 2k and
    2k + 1 of the next."""
    # Each tree's node count per depth, and a row of zeros for the empty
    # depth below the deepest, where the last level's children would go.
    per_depth = np.array([np.bincount(tree, minlength=num_trees) for tree, *_ in levels]
                         + [np.zeros(num_trees, dtype=np.intp)])
    tree_nodes = per_depth.sum(axis=0)
    # A node at position j of its depth belongs to a tree t; within t it
    # follows the tree's nodes of the shallower depths and those of its own
    # depth before it, so its position in the tree is j + shift[depth, t].
    shift = (np.cumsum(per_depth, axis=0) - per_depth) - (np.cumsum(per_depth, axis=1) - per_depth)
    tree_start = np.cumsum(tree_nodes) - tree_nodes
    total = int(tree_nodes.sum())
    columns = [np.empty(total, dtype=np.int32), np.empty(total),
               np.full(total, -1, dtype=np.int32), np.full(total, -1, dtype=np.int32),
               np.empty(total, dtype=np.int32)]
    feature_out, threshold_out, left_out, right_out, size_out = columns
    for depth in reversed(range(len(levels))):
        tree, size, feature, threshold = levels.pop()
        at = (tree_start + shift[depth])[tree]
        at += np.arange(len(tree))
        feature_out[at], threshold_out[at], size_out[at] = feature, threshold, size
        internal = np.flatnonzero(feature >= 0)
        left = 2 * np.arange(len(internal)) + shift[depth + 1][tree[internal]]
        left_out[at[internal]] = left
        right_out[at[internal]] = left + 1
    return columns, tree_nodes


def fit(data, num_trees: int = DEFAULT_NUM_TREES, subsample: int | None = None, seed: int = 0) -> IsolationForestModel:
    """Train an isolation forest on a (num_samples, num_features) array.

    ``subsample`` defaults to min(256, num_samples) and may be at most
    ``MAX_SUBSAMPLE_SIZE``; each tree draws its own subsample without
    replacement and is grown to depth ceil(log2(subsample)).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ConfigError("training data must be a non-empty 2-D array")
    n = data.shape[0]
    if subsample is None:
        subsample = min(DEFAULT_SUBSAMPLE, n)
    if not 1 <= subsample <= min(n, MAX_SUBSAMPLE_SIZE):
        raise ConfigError(f"subsample {subsample} must be in [1, {min(n, MAX_SUBSAMPLE_SIZE)}]")
    if num_trees < 1:
        raise ConfigError("num_trees must be >= 1")

    depth_limit = int(np.ceil(np.log2(subsample))) if subsample > 1 else 0
    columns = np.ascontiguousarray(data.T)

    step = max(1, _CHUNK_POINTS // subsample)
    chunks = []
    for first in range(0, num_trees, step):
        rngs = [rng_from(seed, "tree", i) for i in range(first, min(first + step, num_trees))]
        chunks.append(_assemble(_grow(columns, rngs, subsample, depth_limit), len(rngs)))
    tree_nodes = np.concatenate([counts for _, counts in chunks])
    nodes = {"roots": (np.cumsum(tree_nodes) - tree_nodes).astype(np.int32)}
    for i, name in enumerate(NODE_COLUMNS):
        nodes[name] = np.concatenate([pieces[i] for pieces, _ in chunks])
        for pieces, _ in chunks:
            pieces[i] = None  # each chunk's copy of the column goes once it is joined

    return IsolationForestModel(
        nodes=nodes,
        subsample_size=int(subsample),
        feature_count=int(data.shape[1]),
        seed=int(seed),
        num_training_samples=n,
    )


def _walk_one(trees: tuple, point: list) -> float:
    """One point's path-length sum over the nested trees of
    :meth:`IsolationForestModel.nested_trees`, walked tree by tree in plain
    Python."""
    total = 0.0
    for node in trees:
        while node.__class__ is tuple:
            feature, threshold, left, right = node
            node = left if point[feature] < threshold else right
        total += node
    return total


def _walk_buffers(num_trees: int, width: int) -> tuple:
    """One thread's walk buffers for chunks of ``width`` points: node, at,
    value, threshold and go_left, each (num_trees, width), 33 bytes a
    pair."""
    shape = (num_trees, width)
    return (np.empty(shape, dtype=np.intp), np.empty(shape, dtype=np.intp), np.empty(shape),
            np.empty(shape), np.empty(shape, dtype=bool))


def _walk_range(model: IsolationForestModel, flat: np.ndarray, row_start: np.ndarray,
                start: int, stop: int, buffers: tuple, total: np.ndarray) -> None:
    """Writes the path-length sums of points ``start`` to ``stop`` into
    ``total``, advancing every (tree, point) pair of a chunk together one
    level at a time. The chunks reuse ``buffers`` and allocate no array, so
    a range walked on another thread only reads the model and writes its own
    buffers and its own slice of ``total``."""
    path_lengths = model.path_length_table()
    node, at, value, threshold, go_left = buffers
    num_trees, width = node.shape
    for lo in range(start, stop, width):
        hi = min(lo + width, stop)
        if hi - lo < width:  # the last chunk: a C-contiguous prefix of each buffer
            shape = (num_trees, hi - lo)
            node, at, value, threshold, go_left = (
                b.reshape(-1)[:shape[0] * shape[1]].reshape(shape) for b in buffers)
        node[...] = model.roots[:, None]
        rows = row_start[lo:hi]
        # Every index is in range (``_pack`` checked the children), so "clip"
        # never clips; unlike the default "raise", it lets ``take`` write into
        # ``out`` directly instead of through a buffer. Every index array is
        # ``intp``, which ``take`` uses as it is instead of casting a copy.
        for _ in range(model.levels):
            np.take(model.feature, node, out=at, mode="clip")
            at += rows
            np.take(flat, at, out=value, mode="clip")
            np.take(model.threshold, node, out=threshold, mode="clip")
            np.less(value, threshold, out=go_left)
            np.add(node, node, out=at)
            at += go_left
            np.take(model.kids, at, out=node, mode="clip")
        _sum_over_trees(np.take(path_lengths, node, out=value, mode="clip"), total[lo:hi])


def _sum_over_trees(path_lengths: np.ndarray, out: np.ndarray) -> None:
    """Writes each column's sum of a (trees, points) array into ``out``, in
    tree order from 0.0. Reducing a C-contiguous array over its first axis
    adds row after row, so ``np.add.reduce`` keeps that order for two or
    more points; over a single column it would sum pairwise, so one point is
    summed in plain Python."""
    if path_lengths.shape[1] >= 2:
        np.add.reduce(path_lengths, axis=0, out=out)
        return
    total = 0.0
    for h in path_lengths.ravel().tolist():
        total += h
    out[:] = total


# Threads a large batch may be split across; None means one per CPU the
# process may run on. Each ``bench --jobs`` worker sets its share of the
# CPUs, and tests set it; scores do not depend on it.
_threads = None


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _split_parts(num_points: int, num_trees: int) -> int:
    """How many threads walk a batch: at most one per CPU the process may
    run on, with at least ``_THREAD_PAIRS`` pairs each, both in its range and
    in its chunk of the ``_CHUNK_PAIRS`` the buffers hold together."""
    if num_points * num_trees < 2 * _THREAD_PAIRS:
        return 1  # never split, so the CPU count is not asked for
    threads = _cpus() if _threads is None else _threads
    return max(1, min(threads, _CHUNK_PAIRS // _THREAD_PAIRS,
                      num_points // -(-_THREAD_PAIRS // num_trees)))


def _walk_split(model: IsolationForestModel, flat: np.ndarray, row_start: np.ndarray,
                parts: int, total: np.ndarray) -> None:
    """Walks a batch as ``parts`` contiguous ranges of points, the calling
    thread the first and one new thread each of the others, with buffer sets
    that together hold at most ``_CHUNK_PAIRS`` pairs. With one part that is
    the serial walk: one buffer set, on the calling thread, and no thread
    started."""
    num_points, num_trees = len(total), len(model.roots)
    bounds = [num_points * i // parts for i in range(parts + 1)]
    width = min(max(1, _CHUNK_PAIRS // parts // num_trees), -(-num_points // parts))
    ranges = [(lo, hi, _walk_buffers(num_trees, width)) for lo, hi in zip(bounds, bounds[1:])]
    errors = []

    def walk(lo, hi, buffers):
        try:
            _walk_range(model, flat, row_start, lo, hi, buffers, total)
        except BaseException as error:  # raised in the caller once every range has stopped
            errors.append(error)

    workers = [threading.Thread(target=walk, args=args) for args in ranges[1:]]
    for worker in workers:
        worker.start()
    walk(*ranges[0])
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]


def score_batch(model: IsolationForestModel, points) -> np.ndarray:
    """Anomaly scores in (0, 1) for a (batch, num_features) array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != model.feature_count:
        raise IncompatibleModelError(
            f"point dimension {pts.shape[1]} != model feature count {model.feature_count}"
        )
    num_points, num_features = pts.shape
    num_trees = len(model.roots)
    denom = model.normalizer_c if model.normalizer_c > 0 else 1.0
    if num_points * num_trees <= _PYTHON_WALK_PAIRS:
        trees = model.nested_trees()
        # np.power, as for the NumPy walk's scores, not **: NumPy's SIMD
        # power need not round like the C library's pow.
        return np.power(2.0, [-(_walk_one(trees, point) / num_trees) / denom
                              for point in pts.tolist()])
    # First use derives the path lengths and levels; before any buffer or
    # thread, so that its temporaries never coexist with the buffers and no
    # two threads derive them.
    model.path_length_table()
    # Each point's sum is formed on its own, so neither the split into
    # ranges nor the chunks within a range can change a score.
    flat = np.ascontiguousarray(pts).ravel()
    row_start = np.arange(0, num_points * num_features, num_features)
    total = np.empty(num_points)
    _walk_split(model, flat, row_start, _split_parts(num_points, num_trees), total)
    return np.power(2.0, -(total / num_trees) / denom)
