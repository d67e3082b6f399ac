"""Online binary tree over the joint state-action space.

Leaves hold two sample populations: experience samples (vectors whose reward
has been observed) drive the splits, frontier samples (unfetched candidates)
are routed by the same rules. A split maximizes the weighted reduction of the
reward variance and is only ever attempted on the single leaf that received
the newest experience sample, so the leaf count grows by at most one per
update. Each step evaluates one sampled representative per leaf instead of
the whole frontier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FrontierExhaustedError(RuntimeError):
    """No selectable frontier entry remains in any leaf."""


@dataclass(eq=False)
class FrontierEntry:
    x: np.ndarray
    url: str
    parent: str | None


def _variance_reduction(n, k, sl, ssl, total_sum, total_ss, var_parent):
    """Reward-variance reduction of putting the first k of n sorted rows on the
    left, given the left rewards' sum sl and sum of squares ssl.

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
    doubles when full; exp_x and exp_r are views of the rows filled so far."""

    __slots__ = ("leaf_id", "_x", "_r", "n_exp", "frontier", "feature", "threshold",
                 "left", "right")

    def __init__(self, leaf_id, exp_x=np.empty((0, 0)), exp_r=np.empty(0)):
        self.leaf_id = leaf_id
        self._x = exp_x
        self._r = exp_r
        self.n_exp = len(exp_r)
        self.frontier = []
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

    def add_experience(self, x, reward):
        n = self.n_exp
        if n == len(self._r):
            # np.resize keeps the first n rows and fills the rest with repeats.
            self._x = np.resize(self._x, (max(16, 2 * n), len(x)))
            self._r = np.resize(self._r, max(16, 2 * n))
        self._x[n] = x
        self._r[n] = reward
        self.n_exp = n + 1


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
        self.root = self._new_leaf()
        self._leaves = {self.root.leaf_id: self.root}
        self.n_experience = 0
        self.frontier_size = 0
        self.q_evaluations = 0  # cumulative, selection-attributable only

    def _new_leaf(self, *experience):
        node = _Node(self._next_id, *experience)
        self._next_id += 1
        return node

    @property
    def leaf_count(self):
        return len(self._leaves)

    def leaves(self):
        """Leaves in creation order (ascending leaf id)."""
        return list(self._leaves.values())

    def _route(self, x):
        node = self.root
        while not node.is_leaf:
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
        for entry in leaf.frontier:
            child = left if entry.x[feature] < threshold else right
            child.frontier.append(entry)
        leaf._x, leaf._r, leaf.n_exp = np.empty((0, 0)), np.empty(0), 0
        leaf.frontier = []
        leaf.feature = feature
        leaf.threshold = threshold
        leaf.left = left
        leaf.right = right
        del self._leaves[leaf.leaf_id]
        self._leaves[left.leaf_id] = left
        self._leaves[right.leaf_id] = right

    def insert_frontier(self, entries):
        for entry in entries:
            self._route(entry.x).frontier.append(entry)
            self.frontier_size += 1

    def _pop(self, leaf, i):
        """Swap-remove entry i of the leaf from the frontier and return it."""
        entries = leaf.frontier
        entry = entries[i]
        entries[i] = entries[-1]
        entries.pop()
        self.frontier_size -= 1
        return entry

    def _draw_from_leaf(self, leaf, rng, dead):
        """Index of a uniform draw over the leaf's live entries, or None. A
        dead entry (dead(url) true: it can never be selected again) that the
        draw meets leaves the frontier for good."""
        entries = leaf.frontier
        while entries:
            i = int(rng.integers(0, len(entries)))
            if dead is None or not dead(entries[i].url):
                return i
            self._pop(leaf, i)
        return None

    def sample_representatives(self, rng, dead=None):
        """One uniformly drawn live entry per leaf, as (leaf, index, entry);
        empty leaves are skipped."""
        reps = []
        for leaf in self._leaves.values():
            idx = self._draw_from_leaf(leaf, rng, dead)
            if idx is not None:
                reps.append((leaf, idx, leaf.frontier[idx]))
        return reps

    def update(self, e_new, f_new, mode, qnet, rng, dead=None):
        """One timestep: absorb the newest samples, then pick a frontier entry.

        e_new is an optional (x, reward) pair; f_new is an iterable of
        FrontierEntry. The candidates are the leaf representatives, or in
        synchronous mode every live entry once the dead ones are dropped
        (leaves in id order, then position in the leaf), the brute-force
        contrast that measures what the representatives save. Explore mode
        draws uniformly over the candidates; greedy and synchronous modes take
        the argmax of the value network over them, ties resolved toward the
        lowest leaf id. The selected entry leaves the tree; the others stay.
        """
        if mode not in ("explore", "greedy", "synchronous"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode != "explore" and qnet is None:
            raise ValueError(f"{mode} mode needs a value network")
        split_occurred = e_new is not None and self.insert_experience(e_new[0], e_new[1])
        self.insert_frontier(f_new)
        if mode == "synchronous":
            candidates = []
            for leaf in self._leaves.values():
                if dead is not None:
                    kept = [entry for entry in leaf.frontier if not dead(entry.url)]
                    self.frontier_size -= len(leaf.frontier) - len(kept)
                    leaf.frontier = kept
                candidates.extend((leaf, i, entry) for i, entry in enumerate(leaf.frontier))
        else:
            candidates = self.sample_representatives(rng, dead)
        if not candidates:
            raise FrontierExhaustedError("no selectable frontier entries remain")

        q_value = None
        evals = 0
        if mode == "explore":
            pick = int(rng.integers(0, len(candidates)))
        else:
            rows = [entry.x for _, _, entry in candidates]
            qs = qnet.forward(np.concatenate(rows).reshape(len(rows), -1))
            evals = len(candidates)
            self.q_evaluations += evals
            pick = int(np.argmax(qs))  # first maximum == lowest leaf id
            q_value = float(qs[pick])
        leaf, idx, _ = candidates[pick]
        info = UpdateInfo(split_occurred=split_occurred,
                          n_representatives=len(candidates), q_evaluations=evals,
                          q_value=q_value, leaf_count=self.leaf_count,
                          frontier_size=self.frontier_size)
        return self._pop(leaf, idx), info

    def update_synchronous(self, e_new, f_new, qnet, dead=None):
        """update() in synchronous mode. Kept only because the crawl
        benchmark's tracer patches this name."""
        return self.update(e_new, f_new, "synchronous", qnet, None, dead)

    def snapshot(self) -> dict:
        """JSON-friendly structure of split rules and per-leaf sample counts."""
        def visit(node):
            if node.is_leaf:
                return {"leaf": node.leaf_id,
                        "experience": node.n_exp,
                        "frontier": len(node.frontier)}
            return {"feature": int(node.feature), "threshold": float(node.threshold),
                    "left": visit(node.left), "right": visit(node.right)}
        return {"leaf_count": self.leaf_count, "frontier_size": self.frontier_size,
                "q_evaluations": self.q_evaluations, "tree": visit(self.root)}


class FlatFrontier(TreeFrontier):
    """A flat pool's insert and select on a tree never given an experience, so
    select is a uniform draw over its single leaf. crawl() does not build it;
    it is kept only because the crawl benchmark's tracer patches both names."""

    def insert(self, entries):
        self.insert_frontier(entries)

    def select(self, rng, dead=None) -> FrontierEntry:
        entry, _ = self.update(None, (), "explore", None, rng, dead)
        return entry
