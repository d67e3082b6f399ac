"""The row store behind TreeFrontier against the list-of-entries tree it
replaced: driven through the same random sequences, both must make the same
picks, RNG calls, candidate matrices, step records and snapshots."""

import numpy as np
import pytest

from treecrawl.frontier_tree import (FrontierBlock, FrontierEntry, FrontierExhaustedError,
                                     TreeFrontier, UpdateInfo, best_split)
from treecrawl.graph import CrawlGraph


class _ReferenceNode:
    def __init__(self, leaf_id, exp_x=np.empty((0, 0)), exp_r=np.empty(0)):
        self.leaf_id = leaf_id
        self.exp_x = exp_x
        self.exp_r = exp_r
        self.frontier = []
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None

    @property
    def is_leaf(self):
        return self.feature is None


class ReferenceTree:
    """The previous TreeFrontier: each leaf holds a list of FrontierEntry,
    every leaf is visited on a draw and a split moves entries one at a time."""

    def __init__(self):
        self._next_id = 0
        self.root = self._new_leaf()
        self._leaves = {self.root.leaf_id: self.root}
        self.frontier_size = 0
        self.q_evaluations = 0

    def _new_leaf(self, *experience):
        node = _ReferenceNode(self._next_id, *experience)
        self._next_id += 1
        return node

    def _route(self, x):
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] < node.threshold else node.right
        return node

    def insert_experience(self, x, reward):
        x = np.asarray(x, dtype=np.float64)
        leaf = self._route(x)
        leaf.exp_x = np.vstack([leaf.exp_x.reshape(-1, len(x)), x])
        leaf.exp_r = np.append(leaf.exp_r, float(reward))
        found = best_split(leaf.exp_x, leaf.exp_r)
        if found is None:
            return False
        feature, threshold = found[0], found[1]
        goes_left = leaf.exp_x[:, feature] < threshold
        left = self._new_leaf(leaf.exp_x[goes_left], leaf.exp_r[goes_left])
        right = self._new_leaf(leaf.exp_x[~goes_left], leaf.exp_r[~goes_left])
        for entry in leaf.frontier:
            (left if entry.x[feature] < threshold else right).frontier.append(entry)
        leaf.exp_x, leaf.exp_r, leaf.frontier = np.empty((0, 0)), np.empty(0), []
        leaf.feature, leaf.threshold, leaf.left, leaf.right = feature, threshold, left, right
        del self._leaves[leaf.leaf_id]
        self._leaves[left.leaf_id] = left
        self._leaves[right.leaf_id] = right
        return True

    def insert_frontier(self, entries):
        for entry in entries:
            self._route(entry.x).frontier.append(entry)
            self.frontier_size += 1

    def _pop(self, leaf, i):
        entries = leaf.frontier
        entry = entries[i]
        entries[i] = entries[-1]
        entries.pop()
        self.frontier_size -= 1
        return entry

    def _draw_from_leaf(self, leaf, rng, dead):
        entries = leaf.frontier
        while entries:
            i = int(rng.integers(0, len(entries)))
            if dead is None or not dead(entries[i].url):
                return i
            self._pop(leaf, i)
        return None

    def sample_representatives(self, rng, dead=None):
        reps = []
        for leaf in self._leaves.values():
            idx = self._draw_from_leaf(leaf, rng, dead)
            if idx is not None:
                reps.append((leaf, idx, leaf.frontier[idx]))
        return reps

    def update(self, e_new, f_new, mode, qnet, rng, dead=None):
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
            pick = int(np.argmax(qs))
            q_value = float(qs[pick])
        leaf, idx, _ = candidates[pick]
        info = UpdateInfo(split_occurred=split_occurred,
                          n_representatives=len(candidates), q_evaluations=evals,
                          q_value=q_value, leaf_count=len(self._leaves),
                          frontier_size=self.frontier_size)
        return self._pop(leaf, idx), info

    def snapshot(self):
        def visit(node):
            if node.is_leaf:
                return {"leaf": node.leaf_id, "experience": len(node.exp_r),
                        "frontier": len(node.frontier)}
            return {"feature": int(node.feature), "threshold": float(node.threshold),
                    "left": visit(node.left), "right": visit(node.right)}
        return {"leaf_count": len(self._leaves), "frontier_size": self.frontier_size,
                "q_evaluations": self.q_evaluations, "tree": visit(self.root)}


class _RecordingQ:
    """Scores rows by a fixed linear map rounded to one decimal, so that ties
    are common, and keeps every matrix it was asked to score."""

    def __init__(self, d):
        self.w = np.linspace(1.0, -1.0, d)
        self.seen = []

    def forward(self, x):
        self.seen.append(np.array(x))
        return np.round(x @ self.w, 1)


def _same_entry(a, b):
    return a.url == b.url and a.parent == b.parent and np.array_equal(a.x, b.x)


def _drive(seed, modes, cap, rule, steps=300, d=3):
    """Run both trees through one random sequence and compare after every step.

    Unless rule is "none", the store is told of every fetch (mark_fetched).
    With rule "dead_rule" the reference reads the store's own dead flags once
    per entry; with rule "lambda" it gets an independent plain rule over the
    crawl graph.
    """
    rng = np.random.default_rng(seed)
    store, ref = TreeFrontier(), ReferenceTree()
    rng_store, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    q_store, q_ref = _RecordingQ(d), _RecordingQ(d)
    graph = CrawlGraph()

    def register_fetch(url, reward):
        graph.register_fetch(None, url, reward)
        if rule != "none":
            store.mark_fetched(url, cap is not None
                               and graph.domain_stats[url.split("/")[2]][0] >= cap)

    dead_ref = None
    if rule == "dead_rule":
        flags = store._store
        dead_ref = lambda url: bool(  # noqa: E731
            flags.fetched[flags.ids[url]] or flags.full[flags.domain[flags.ids[url]]])
    if rule == "lambda":
        dead_ref = lambda url: url in graph or (  # noqa: E731
            cap is not None and graph.domain_stats.get(url.split("/")[2], [0])[0] >= cap)
    urls = [f"http://d{i % 20}.sim/p{i}" for i in range(300)]  # duplicates and shared domains
    picks = 0
    for t in range(steps):
        e_new = None
        if rng.random() < 0.7:
            e_new = (np.round(rng.uniform(size=d), 2), float(rng.random() < 0.3))
        k = int(rng.integers(0, 6))
        parent = f"http://d{t % 20}.sim/p{t}" if t % 5 else None
        x = np.round(rng.uniform(size=(k, d)), 2)  # repeated values exercise split ties
        page = [str(u) for u in rng.choice(urls, size=k)]
        ref_entries = [FrontierEntry(x=row.copy(), url=u, parent=parent) for row, u in zip(x, page)]
        f_new = FrontierBlock(x, page, parent)
        if rng.random() < 0.05:  # fetched outside the frontier, as seeds are
            outside = str(rng.choice(urls))
            if outside not in graph:
                register_fetch(outside, 0)
        mode = modes[int(rng.integers(0, len(modes)))]
        outcome = []
        for call in (lambda: store.update(e_new, f_new, mode, q_store, rng_store),
                     lambda: ref.update(e_new, ref_entries, mode, q_ref, rng_ref, dead_ref)):
            try:
                outcome.append(call())
            except FrontierExhaustedError:
                outcome.append(None)
        assert (outcome[0] is None) == (outcome[1] is None), t
        if outcome[0] is not None:
            (got, info), (want, want_info) = outcome
            assert _same_entry(got, want), t
            assert info == want_info, t
            if got.url not in graph:
                register_fetch(got.url, int(rng.random() < 0.5))
            picks += 1
        assert rng_store.bit_generator.state == rng_ref.bit_generator.state, t
        assert len(q_store.seen) == len(q_ref.seen), t
        for a, b in zip(q_store.seen, q_ref.seen):
            assert np.array_equal(a, b), t
        q_store.seen.clear(), q_ref.seen.clear()
        assert store.snapshot() == ref.snapshot(), t
    return picks


MODES = {"explore": ("explore",), "greedy": ("greedy",), "synchronous": ("synchronous",),
         "mixed": ("explore", "greedy", "synchronous")}


@pytest.mark.parametrize("modes", list(MODES))
@pytest.mark.parametrize("rule, cap", [("none", None), ("dead_rule", None), ("dead_rule", 5),
                                       ("lambda", None), ("lambda", 5)])
def test_matches_list_reference(modes, rule, cap):
    for seed in range(3):
        assert _drive(seed, MODES[modes], cap, rule) > 0


def test_block_rows_keep_no_entry_objects():
    tree = TreeFrontier()
    x = np.array([[0.1, 0.2], [0.3, 0.4]])
    tree.insert_frontier(FrontierBlock(x, ["http://a.com/1", "http://b.com/2"], "http://a.com/"))
    assert tree.frontier_size == 2
    picked, _ = tree.update(None, None, "explore", None, np.random.default_rng(0))
    assert picked.parent == "http://a.com/" and picked.url in ("http://a.com/1", "http://b.com/2")
    assert not hasattr(picked, "__dict__")
    x[:] = 9.0  # the store holds its own copy of the block
    assert tree.root.frontier[0].x.max() < 1.0
