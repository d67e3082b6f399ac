"""Online binary tree over the joint state-action space.

Leaves hold two sample populations: experience samples (vectors whose reward
has been observed) drive the splits, frontier samples (unfetched candidates)
are routed by the same rules. A split maximizes the weighted reduction of the
reward variance and is only ever attempted on the single leaf that received
the newest experience sample, so the leaf count grows by at most one per
update. Each step evaluates one sampled representative per leaf instead of
the whole frontier.

Frontier samples are stored once, as rows of one store, and a leaf holds
only their row ids; a draw visits only the leaves that hold rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .urls import domain_of


class FrontierExhaustedError(RuntimeError):
    """No selectable frontier entry remains in any leaf."""


@dataclass(eq=False, slots=True)
class FrontierEntry:
    """One frontier candidate: its features, its URL and the URL of the page
    that linked to it (None for none)."""
    x: np.ndarray
    url: str
    parent: str | None


@dataclass(slots=True)
class FrontierBlock:
    """The new frontier entries found on one page: row i of the (k, d) array
    x belongs to urls[i], and every entry has the same parent."""
    x: np.ndarray
    urls: list
    parent: str | None

    def __post_init__(self):
        if not (isinstance(self.x, np.ndarray) and self.x.ndim == 2
                and len(self.x) == len(self.urls)):
            raise ValueError(f"a block of {len(self.urls)} URLs needs a ({len(self.urls)}, d) "
                             f"feature array, got {type(self.x).__name__} of shape "
                             f"{np.shape(self.x)}")

    def __len__(self):
        return len(self.urls)


def _room(a, n):
    """a, or a copy of it with room for n items along axis 0, zero-filled."""
    if n <= len(a):
        return a
    grown = np.zeros((max(16, 2 * n),) + a.shape[1:], a.dtype)
    grown[:len(a)] = a
    return grown


class _Store:
    """Every frontier entry ever inserted, one row each, in insertion order.

    Each URL gets an integer id when it is first seen. Row i holds features
    x[i], URL id url[i] and the parent's URL id parent[i] (-1 for None). Rows
    never move: an entry leaves the frontier when its leaf forgets the row id.

    Per URL id, domain holds its domain's id and fetched a flag set once it
    is fetched; per domain id, full is a flag set once the domain reaches the
    crawl's fetch cap. A flag is never cleared.
    """

    def __init__(self):
        self.n = 0
        self.x = np.empty((0, 0))
        self.url = array("q")
        self.parent = array("q")
        self.ids = {}  # URL -> id
        self.urls = []  # id -> URL
        self.domain = array("q")
        self.domain_ids = {}
        self.fetched = bytearray()
        self.full = bytearray()

    def url_id(self, url):
        uid = self.ids.get(url)
        if uid is None:
            uid = self.ids[url] = len(self.urls)
            self.urls.append(url)
            self.fetched.append(0)
            did = self.domain_ids.setdefault(domain_of(url), len(self.full))
            if did == len(self.full):
                self.full.append(0)
            self.domain.append(did)
        return uid

    def append(self, block):
        """Append one row per entry of the block; returns the first new row id."""
        if self.n and block.x.shape[1] != self.x.shape[1]:
            raise ValueError(f"a block of shape {block.x.shape} does not fit a store "
                             f"of shape {(self.n, self.x.shape[1])}")
        url_ids = [self.url_id(u) for u in block.urls]
        parent = -1 if block.parent is None else self.url_id(block.parent)
        first = self.n
        self.n = first + len(block)
        if first == 0:
            self.x = np.empty((0, block.x.shape[1]))
        self.x = _room(self.x, self.n)
        self.x[first:self.n] = block.x
        self.url.extend(url_ids)
        self.parent.extend([parent] * len(block))
        return first

    def entry(self, row):
        parent = self.parent[row]
        return FrontierEntry(self.x[row], self.urls[self.url[row]],
                             None if parent < 0 else self.urls[parent])


def _variance_reduction(n, k, sl, ssl, total_sum, total_ss, var_parent):
    """Reward-variance reduction of putting the first k of n sorted rows on the
    left, from the left rewards' sum sl and sum of squares ssl.

    Works on scalars and, elementwise, on arrays. The results can differ in
    the last bits: numpy squares an array by multiplication but a scalar with
    libm pow(), which is not always correctly rounded.
    """
    nr = n - k
    sr = total_sum - sl
    ssr = total_ss - ssl
    var_l = ssl / k - (sl / k) ** 2
    var_r = ssr / nr - (sr / nr) ** 2
    return var_parent - (k / n) * var_l - (nr / n) * var_r


# How far an array-computed reduction may lie from the scalar one, as a share
# of the largest squared reward; the rounding error is below 3e-15 of it.
_ROUNDING_SLACK = 1e-12


def best_split(features, rewards):
    """Exhaustive search over (feature, midpoint threshold) pairs for the split
    with the highest positive variance reduction.

    Thresholds are midpoints between consecutive distinct sorted values, so
    both sides are always non-empty. Variance is the population variance of
    the rewards, computed as E[r^2] - E[r]^2 from plain sums; for 0/1 rewards
    the sums are exact, which keeps the search reproducible against an
    independent recomputation. Returns (feature, threshold, vr) or None when
    no candidate achieves vr > 0; ties go to the lowest feature, then the
    lowest threshold.

    All candidates are scored at once from prefix sums over each feature's
    stable sort order (the CART scan). The few that could still win once
    array rounding is allowed for are rescored with scalar arithmetic, so the
    result is exactly that of a scalar loop over every candidate.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(rewards, dtype=np.float64)
    n = y.shape[0]
    if n < 2:
        return None
    if y[0] in (0.0, 1.0) and (y == y[0]).all():
        return None  # every candidate's vr is exactly 0 for constant 0/1 rewards
    total_sum = float(y.sum())
    total_ss = float((y * y).sum())
    var_parent = total_ss / n - (total_sum / n) ** 2
    # Row f holds feature f's values in stable ascending order; candidate
    # (f, j) puts the first j + 1 of them on the left.
    order = np.argsort(X.T, axis=1, kind="stable")
    vs = X.T[np.arange(X.shape[1])[:, None], order]
    ys = y[order]
    csum = np.cumsum(ys, axis=1)
    cssum = np.cumsum(ys * ys, axis=1)
    vr = _variance_reduction(n, np.arange(1, n), csum[:, :-1], cssum[:, :-1],
                             total_sum, total_ss, var_parent)
    vr[vs[:, 1:] == vs[:, :-1]] = -np.inf  # no threshold between equal values

    slack = _ROUNDING_SLACK * float(np.max(y * y))
    upper = vr + slack
    contenders = np.flatnonzero((upper > 0.0) & (upper >= np.max(vr) - slack))
    best = None
    for i in contenders:  # feature-major, the order of a scalar loop
        f, j = divmod(int(i), n - 1)
        v = _variance_reduction(n, j + 1, csum[f, j], cssum[f, j], total_sum,
                                total_ss, var_parent)
        if v > 0.0 and (best is None or v > best[2]):
            best = (f, float((vs[f, j] + vs[f, j + 1]) / 2.0), float(v))
    return best


class _Node:
    """A tree node. A leaf keeps its experience in row arrays whose capacity
    doubles when full; exp_x and exp_r are views of the rows filled so far.
    Its frontier is the store rows listed in `rows`."""

    __slots__ = ("leaf_id", "_x", "_r", "n_exp", "rows", "_store", "feature",
                 "threshold", "left", "right")

    def __init__(self, leaf_id, store, exp_x=np.empty((0, 0)), exp_r=np.empty(0)):
        self.leaf_id = leaf_id
        self._x = exp_x
        self._r = exp_r
        self.n_exp = len(exp_r)
        self.rows = array("q")
        self._store = store
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None

    @property
    def is_leaf(self):
        return self.feature is None

    @property
    def exp_x(self):
        return self._x[:self.n_exp]

    @property
    def exp_r(self):
        return self._r[:self.n_exp]

    @property
    def frontier(self):
        """The leaf's entries in row order, as a new list."""
        return [self._store.entry(row) for row in self.rows]

    def add_experience(self, x, reward):
        n = self.n_exp
        if n == len(self._r):
            # np.resize keeps the first n rows and fills the rest with repeats.
            self._x = np.resize(self._x, (max(16, 2 * n), len(x)))
            self._r = np.resize(self._r, max(16, 2 * n))
        self._x[n] = x
        self._r[n] = reward
        self.n_exp = n + 1


def _rows_of(leaf):
    return np.frombuffer(leaf.rows, dtype=np.int64)


@dataclass
class UpdateInfo:
    """What one selection step did; the crawl loop's record of the step.

    frontier_size counts the entries stored at selection time, the chosen one
    included. A representative draw drops a dead entry only when it meets one,
    so in explore and greedy modes the count can still hold dead entries;
    synchronous mode drops them all first. A URL reached by several links
    counts once per link.
    """
    split_occurred: bool
    n_representatives: int
    q_evaluations: int
    q_value: float | None
    leaf_count: int
    frontier_size: int


class TreeFrontier:
    """Single-writer tree; selection state advances only through its methods."""

    def __init__(self):
        self._next_id = 0
        self._store = _Store()
        self.root = self._new_leaf()
        self._leaves = {self.root.leaf_id: self.root}
        self._stocked = {}  # leaf id -> leaf, for the leaves that hold rows
        self.n_experience = 0
        self.frontier_size = 0
        self.q_evaluations = 0  # cumulative, selection-attributable only

    def _new_leaf(self, *experience):
        node = _Node(self._next_id, self._store, *experience)
        self._next_id += 1
        return node

    @property
    def leaf_count(self):
        return len(self._leaves)

    def leaves(self):
        """Leaves in creation order (ascending leaf id)."""
        return list(self._leaves.values())

    def _stocked_leaves(self):
        """The leaves that hold rows, in ascending leaf id."""
        return [self._stocked[i] for i in sorted(self._stocked)]

    def _route(self, x):
        node = self.root
        while node.feature is not None:  # not the is_leaf property: a hot loop
            node = node.left if x[node.feature] < node.threshold else node.right
        return node

    def insert_experience(self, x, reward) -> bool:
        """Route a labeled sample to its leaf and try a split there.

        Returns True when the leaf was split; both sample populations are then
        re-routed to the two children by the new rule.
        """
        x = np.asarray(x, dtype=np.float64)
        leaf = self._route(x)
        leaf.add_experience(x, float(reward))
        self.n_experience += 1
        found = best_split(leaf.exp_x, leaf.exp_r)
        if found is None:
            return False
        self._split_leaf(leaf, found[0], found[1])
        return True

    def _split_leaf(self, leaf, feature, threshold):
        goes_left = leaf.exp_x[:, feature] < threshold
        left = self._new_leaf(leaf.exp_x[goes_left], leaf.exp_r[goes_left])
        right = self._new_leaf(leaf.exp_x[~goes_left], leaf.exp_r[~goes_left])
        if leaf.rows:
            rows = _rows_of(leaf)
            to_left = self._store.x[rows, feature] < threshold
            left.rows = array("q", rows[to_left].tobytes())
            right.rows = array("q", rows[~to_left].tobytes())
            del self._stocked[leaf.leaf_id]
            for child in (left, right):
                if child.rows:
                    self._stocked[child.leaf_id] = child
        leaf._x, leaf._r, leaf.n_exp = np.empty((0, 0)), np.empty(0), 0
        leaf.rows = array("q")
        leaf.feature = feature
        leaf.threshold = threshold
        leaf.left = left
        leaf.right = right
        del self._leaves[leaf.leaf_id]
        self._leaves[left.leaf_id] = left
        self._leaves[right.leaf_id] = right

    def insert_frontier(self, block):
        """Add the entries of a FrontierBlock (None adds none)."""
        if not block:
            return
        store = self._store
        first = store.append(block)
        for row, x in enumerate(store.x[first:store.n].tolist(), start=first):
            leaf = self._route(x)
            if not leaf.rows:
                self._stocked[leaf.leaf_id] = leaf
            leaf.rows.append(row)
        self.frontier_size += store.n - first

    def _pop(self, leaf, i):
        """Swap-remove row i of the leaf from the frontier and return its row id."""
        rows = leaf.rows
        row = rows[i]
        rows[i] = rows[-1]
        rows.pop()
        if not rows:
            del self._stocked[leaf.leaf_id]
        self.frontier_size -= 1
        return row

    def mark_fetched(self, url, domain_full):
        """Note that url was fetched and, when domain_full is true, that its
        domain has reached the crawl's fetch cap. Neither can be undone, so
        their entries are dead: none is selected again, and each leaves the
        frontier for good when a draw meets it."""
        store = self._store
        uid = store.url_id(url)
        store.fetched[uid] = 1
        if domain_full:
            store.full[store.domain[uid]] = 1

    def _draw_from_leaf(self, leaf, rng):
        """Index of a uniform draw over the leaf's live rows, or None. A dead
        entry that the draw meets leaves the frontier for good."""
        rows = leaf.rows
        store = self._store
        url_of, fetched, full, domain = store.url, store.fetched, store.full, store.domain
        while rows:
            i = int(rng.integers(0, len(rows)))
            uid = url_of[rows[i]]
            if not (fetched[uid] or full[domain[uid]]):
                return i
            self._pop(leaf, i)
        return None

    def sample_representatives(self, rng):
        """One uniformly drawn live entry per leaf, as (leaf, index in the
        leaf, store row); empty leaves are skipped."""
        reps = []
        for leaf in self._stocked_leaves():
            idx = self._draw_from_leaf(leaf, rng)
            if idx is not None:
                reps.append((leaf, idx, leaf.rows[idx]))
        return reps

    def _live_rows(self):
        """Every live row once the dead ones are dropped for good, leaves in
        id order, then position in the leaf: (leaves, their row counts, rows)."""
        leaves = self._stocked_leaves()
        if not leaves:
            return [], [], np.empty(0, np.int64)
        rows = np.concatenate([_rows_of(leaf) for leaf in leaves])
        sizes = [len(leaf.rows) for leaf in leaves]
        store = self._store
        url_ids = np.frombuffer(store.url, dtype=np.int64)[rows]
        gone = (np.frombuffer(store.fetched, dtype=bool)[url_ids]
                | np.frombuffer(store.full, dtype=bool)[
                    np.frombuffer(store.domain, dtype=np.int64)[url_ids]])
        if not gone.any():
            return leaves, sizes, rows
        ends = np.cumsum(sizes)
        starts = ends - sizes
        for k in np.flatnonzero(np.logical_or.reduceat(gone, starts)).tolist():
            leaf, own = leaves[k], slice(starts[k], ends[k])
            leaf.rows = array("q", rows[own][~gone[own]].tobytes())
            if not leaf.rows:
                del self._stocked[leaf.leaf_id]
        self.frontier_size -= int(gone.sum())
        leaves = [leaf for leaf in leaves if leaf.rows]
        return leaves, [len(leaf.rows) for leaf in leaves], rows[~gone]

    def update(self, e_new, f_new, mode, qnet, rng):
        """One timestep: absorb the newest samples, then pick a frontier entry.

        e_new is an optional (x, reward) pair; f_new is an optional
        FrontierBlock. The candidates are the leaf representatives, or in
        synchronous mode every live entry once the dead ones (mark_fetched)
        are dropped (leaves in id order, then position in the leaf), the
        brute-force contrast that measures what the representatives save.
        Explore mode draws uniformly over the candidates; greedy and
        synchronous modes take the argmax of the value network over them,
        ties resolved toward the lowest leaf id. The selected entry leaves
        the tree; the others stay.
        """
        if mode not in ("explore", "greedy", "synchronous"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode != "explore" and qnet is None:
            raise ValueError(f"{mode} mode needs a value network")
        split_occurred = e_new is not None and self.insert_experience(e_new[0], e_new[1])
        self.insert_frontier(f_new)
        if mode == "synchronous":
            leaves, sizes, rows = self._live_rows()
            n_candidates = len(rows)
        else:
            candidates = self.sample_representatives(rng)
            n_candidates = len(candidates)
        if not n_candidates:
            raise FrontierExhaustedError("no selectable frontier entries remain")

        q_value = None
        evals = 0
        if mode == "explore":
            leaf, idx, row = candidates[int(rng.integers(0, n_candidates))]
        else:
            if mode == "greedy":
                rows = np.array([row for _, _, row in candidates])
            qs = qnet.forward(self._store.x[rows])
            evals = n_candidates
            self.q_evaluations += evals
            pick = int(np.argmax(qs))  # first maximum == lowest leaf id
            q_value = float(qs[pick])
            if mode == "greedy":
                leaf, idx, row = candidates[pick]
            else:
                k = int(np.searchsorted(np.cumsum(sizes), pick, side="right"))
                leaf, idx, row = leaves[k], pick - sum(sizes[:k]), int(rows[pick])
        entry = self._store.entry(row)
        info = UpdateInfo(split_occurred=split_occurred,
                          n_representatives=n_candidates, q_evaluations=evals,
                          q_value=q_value, leaf_count=self.leaf_count,
                          frontier_size=self.frontier_size)
        self._pop(leaf, idx)
        return entry, info

    def update_synchronous(self, e_new, f_new, qnet):
        """update() in synchronous mode. Kept only because the crawl
        benchmark's tracer patches this name."""
        return self.update(e_new, f_new, "synchronous", qnet, None)

    def snapshot(self) -> dict:
        """JSON-friendly structure of split rules and per-leaf sample counts."""
        def visit(node):
            if node.is_leaf:
                return {"leaf": node.leaf_id,
                        "experience": node.n_exp,
                        "frontier": len(node.rows)}
            return {"feature": int(node.feature), "threshold": float(node.threshold),
                    "left": visit(node.left), "right": visit(node.right)}
        return {"leaf_count": self.leaf_count, "frontier_size": self.frontier_size,
                "q_evaluations": self.q_evaluations, "tree": visit(self.root)}


class FlatFrontier(TreeFrontier):
    """A flat pool's insert and select on a tree that gets no experience, so
    select is a uniform draw over its single leaf. crawl() does not build it;
    it is kept only because the crawl benchmark's tracer patches both names."""

    def insert(self, block):
        self.insert_frontier(block)

    def select(self, rng) -> FrontierEntry:
        entry, _ = self.update(None, None, "explore", None, rng)
        return entry
