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


def best_split(features, rewards):
    """Exhaustive search over (feature, midpoint threshold) pairs for the split
    with the highest positive variance reduction.

    Thresholds are midpoints between consecutive distinct sorted values, so
    both sides are always non-empty. Variance is the population variance of
    the rewards, computed as E[r^2] - E[r]^2 from plain sums; for 0/1 rewards
    the sums are exact, which keeps the search reproducible against an
    independent recomputation. Returns (feature, threshold, vr) or None when
    no candidate achieves vr > 0.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(rewards, dtype=np.float64)
    n = y.shape[0]
    if n < 2:
        return None
    total_sum = float(y.sum())
    total_ss = float((y * y).sum())
    var_parent = total_ss / n - (total_sum / n) ** 2
    best = None
    for f in range(X.shape[1]):
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        vs = values[order]
        ys = y[order]
        csum = np.cumsum(ys)
        cssum = np.cumsum(ys * ys)
        for k in range(1, n):
            if vs[k] == vs[k - 1]:
                continue
            c = (vs[k - 1] + vs[k]) / 2.0
            nl = k
            sl = csum[k - 1]
            ssl = cssum[k - 1]
            nr = n - k
            sr = total_sum - sl
            ssr = total_ss - ssl
            var_l = ssl / nl - (sl / nl) ** 2
            var_r = ssr / nr - (sr / nr) ** 2
            vr = var_parent - (nl / n) * var_l - (nr / n) * var_r
            if vr > 0.0 and (best is None or vr > best[2]):
                best = (f, float(c), float(vr))
    return best


class _Node:
    __slots__ = ("leaf_id", "exp_x", "exp_r", "frontier", "feature", "threshold",
                 "left", "right")

    def __init__(self, leaf_id):
        self.leaf_id = leaf_id
        self.exp_x = []
        self.exp_r = []
        self.frontier = []
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None

    @property
    def is_leaf(self):
        return self.feature is None


@dataclass
class UpdateInfo:
    """What one selection step did; the crawl loop's record of the step.

    frontier_size counts the entries stored at selection time, the chosen one
    included. Entries are purged only when a draw meets them, so the count
    can include URLs that were already fetched, and a URL reached by several
    links counts once per link.
    """
    split_occurred: bool
    n_representatives: int
    q_evaluations: int
    q_value: float | None
    leaf_id: int
    leaf_count: int
    frontier_size: int


class TreeFrontier:
    """Single-writer tree; selection state advances only through its methods."""

    def __init__(self):
        self._next_id = 0
        self.root = self._new_leaf()
        self._leaves = {self.root.leaf_id: self.root}
        self.n_experience = 0
        self.n_frontier = 0
        self.q_evaluations = 0  # cumulative, selection-attributable only

    def _new_leaf(self):
        node = _Node(self._next_id)
        self._next_id += 1
        return node

    @property
    def leaf_count(self):
        return len(self._leaves)

    @property
    def frontier_size(self):
        return self.n_frontier

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
        leaf.exp_x.append(x)
        leaf.exp_r.append(float(reward))
        self.n_experience += 1
        found = best_split(np.stack(leaf.exp_x), np.array(leaf.exp_r))
        if found is None:
            return False
        self._split_leaf(leaf, found[0], found[1])
        return True

    def _split_leaf(self, leaf, feature, threshold):
        left = self._new_leaf()
        right = self._new_leaf()
        for xv, rv in zip(leaf.exp_x, leaf.exp_r):
            child = left if xv[feature] < threshold else right
            child.exp_x.append(xv)
            child.exp_r.append(rv)
        for entry in leaf.frontier:
            child = left if entry.x[feature] < threshold else right
            child.frontier.append(entry)
        leaf.exp_x = []
        leaf.exp_r = []
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
            self.n_frontier += 1

    def _draw_from_leaf(self, leaf, rng, url_fetched, domain_saturated):
        """Index of a uniform draw over the leaf's selectable entries, or None.

        Entries whose URL has entered the closure are dead and get purged on
        sight; entries from saturated domains stay in the leaf but cannot be
        drawn this step.
        """
        entries = leaf.frontier
        skipped = []
        chosen = None
        while entries:
            i = int(rng.integers(0, len(entries)))
            entry = entries[i]
            if url_fetched is not None and url_fetched(entry.url):
                self.n_frontier -= 1
            elif domain_saturated is not None and domain_saturated(entry.url):
                skipped.append(entry)
            else:
                chosen = i
                break
            entries[i] = entries[-1]
            entries.pop()
        entries.extend(skipped)
        return chosen

    def sample_representatives(self, rng, url_fetched=None, domain_saturated=None):
        """One uniformly drawn selectable entry per leaf, as (leaf, index,
        entry); empty leaves are skipped."""
        reps = []
        for leaf in self._leaves.values():
            if leaf.frontier:
                idx = self._draw_from_leaf(leaf, rng, url_fetched, domain_saturated)
                if idx is not None:
                    reps.append((leaf, idx, leaf.frontier[idx]))
        return reps

    def _absorb(self, e_new, f_new) -> bool:
        """Insert the newest experience, then the new entries; True on a split."""
        split_occurred = e_new is not None and self.insert_experience(e_new[0], e_new[1])
        self.insert_frontier(f_new)
        return split_occurred

    def _take(self, leaf, idx, split_occurred, n_representatives, q_evaluations,
              q_value):
        """Record the step as it stands at selection, then swap-remove the
        chosen entry from its leaf."""
        info = UpdateInfo(split_occurred=split_occurred,
                          n_representatives=n_representatives,
                          q_evaluations=q_evaluations, q_value=q_value,
                          leaf_id=leaf.leaf_id, leaf_count=self.leaf_count,
                          frontier_size=self.n_frontier)
        entries = leaf.frontier
        entry = entries[idx]
        entries[idx] = entries[-1]
        entries.pop()
        self.n_frontier -= 1
        return entry, info

    def update(self, e_new, f_new, mode, qnet, rng,
               url_fetched=None, domain_saturated=None):
        """One timestep: absorb the newest samples, then pick a frontier entry.

        e_new is an optional (x, reward) pair; f_new is an iterable of
        FrontierEntry. In explore mode the choice is uniform over the leaf
        representatives; in greedy mode it is the argmax of the value network
        over them, ties resolved toward the lowest leaf id. The selected entry
        leaves the tree; the other representatives stay in their leaves.
        """
        split_occurred = self._absorb(e_new, f_new)
        reps = self.sample_representatives(rng, url_fetched, domain_saturated)
        if not reps:
            raise FrontierExhaustedError("no selectable frontier entries remain")

        q_value = None
        evals = 0
        if mode == "explore":
            pick = int(rng.integers(0, len(reps)))
        elif mode == "greedy":
            if qnet is None:
                raise ValueError("greedy mode needs a value network")
            qs = qnet.forward(np.stack([entry.x for _, _, entry in reps]))
            evals = len(reps)
            self.q_evaluations += evals
            pick = int(np.argmax(qs))  # first maximum == lowest leaf id
            q_value = float(qs[pick])
        else:
            raise ValueError(f"unknown mode {mode!r}")
        leaf, idx, _ = reps[pick]
        return self._take(leaf, idx, split_occurred, len(reps), evals, q_value)

    def update_synchronous(self, e_new, f_new, qnet, url_fetched=None,
                           domain_saturated=None):
        """Brute-force counterpart of update(): score every stored frontier
        entry with the value network and take the argmax over the selectable
        ones. Exists to measure the cost the representative sampling avoids."""
        split_occurred = self._absorb(e_new, f_new)
        refs = []
        for leaf in self._leaves.values():
            if url_fetched is not None:
                kept = [entry for entry in leaf.frontier if not url_fetched(entry.url)]
                self.n_frontier -= len(leaf.frontier) - len(kept)
                leaf.frontier = kept
            refs.extend((leaf, i, entry) for i, entry in enumerate(leaf.frontier))
        if not refs:
            raise FrontierExhaustedError("no selectable frontier entries remain")

        qs = qnet.forward(np.stack([entry.x for _, _, entry in refs]))
        self.q_evaluations += len(refs)
        if domain_saturated is not None:
            qs = np.where([domain_saturated(entry.url) for _, _, entry in refs],
                          -np.inf, qs)
        best = int(np.argmax(qs))  # first maximum == lowest leaf id
        if qs[best] == -np.inf:
            raise FrontierExhaustedError("every remaining entry is domain-saturated")
        leaf, idx, _ = refs[best]
        return self._take(leaf, idx, split_occurred, len(refs), len(refs),
                          float(qs[best]))

    def snapshot(self) -> dict:
        """JSON-friendly structure of split rules and per-leaf sample counts."""
        def visit(node):
            if node.is_leaf:
                return {"leaf": node.leaf_id,
                        "experience": len(node.exp_r),
                        "frontier": len(node.frontier)}
            return {"feature": int(node.feature), "threshold": float(node.threshold),
                    "left": visit(node.left), "right": visit(node.right)}
        return {"leaf_count": self.leaf_count, "frontier_size": self.frontier_size,
                "q_evaluations": self.q_evaluations, "tree": visit(self.root)}


class FlatFrontier(TreeFrontier):
    """The uniform-random baseline: a tree that is never given an experience
    keeps its single leaf, so an explore draw from it is uniform over the
    frontier, with a leaf's purge and skip rules. insert and select are a flat
    pool's two calls; the crawl benchmark's tracer patches both by name."""

    def insert(self, entries):
        self.insert_frontier(entries)

    def select(self, rng, url_fetched=None, domain_saturated=None) -> FrontierEntry:
        entry, _ = self.update(None, (), "explore", None, rng, url_fetched,
                               domain_saturated)
        return entry
