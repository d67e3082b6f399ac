import re

import numpy as np
import pytest

from treecrawl.frontier_tree import (FlatFrontier, FrontierBlock, FrontierEntry,
                                     FrontierExhaustedError, TreeFrontier,
                                     best_split)


def oracle_best_split(X, y):
    """Independent exhaustive search; same tie order (feature asc, threshold
    asc, strict improvement), variances recomputed from masked subsets."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 2:
        return None

    def var_of(sub):
        m = len(sub)
        s = float(np.sum(sub))
        ss = float(np.sum(sub * sub))
        return ss / m - (s / m) ** 2

    var_p = var_of(y)
    best = None
    for f in range(X.shape[1]):
        distinct = np.unique(X[:, f])
        for i in range(len(distinct) - 1):
            c = (distinct[i] + distinct[i + 1]) / 2.0
            mask = X[:, f] < c
            nl = int(mask.sum())
            nr = n - nl
            var_l = var_of(y[mask])
            var_r = var_of(y[~mask])
            vr = var_p - (nl / n) * var_l - (nr / n) * var_r
            if vr > 0.0 and (best is None or vr > best[2]):
                best = (f, float(c), float(vr))
    return best


def loop_best_split(features, rewards):
    """The per-threshold loop that the array scan replaced, kept as the
    reference: the scan must return exactly its tuple, vr included."""
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


def crawl_shaped_rows(rng, n):
    """n state-action vectors shaped like the crawler's 8 features: 0/1 and
    {0, 0.5, 1} columns full of duplicates, ratios and probabilities."""
    return np.column_stack([
        rng.integers(0, 2, n).astype(float),          # parent reward
        rng.choice([0.0, 1 / 3, 0.5, 1.0], n),         # inverse distance
        rng.integers(0, 4, n) / rng.integers(1, 5, n),  # path ratio
        rng.integers(0, 2, n).astype(float),          # keyword in URL
        rng.integers(0, 2, n).astype(float),          # keyword in anchor
        np.round(rng.uniform(size=n), 3),              # relevance probability
        rng.choice([0.0, 0.5, 1.0], n),                # domain ratio
        rng.choice([0.5, 1.0], n),                     # known domain
    ])


def crawl_shaped_rewards(rng, n):
    kind = rng.integers(0, 6)
    if kind == 0:
        return np.full(n, float(rng.choice([0.0, 1.0, 0.3])))  # all equal
    if kind == 1:
        return rng.uniform(size=n)  # real-valued rewards
    return (rng.uniform(size=n) < rng.uniform(0.02, 0.5)).astype(float)


def entry(x, url="http://x.com/a", parent="http://x.com/s"):
    return FrontierEntry(x=np.asarray(x, dtype=float), url=url, parent=parent)


def block(entries):
    """The entries, which share one parent, as the FrontierBlock of one page."""
    (parent,) = {e.parent for e in entries}
    return FrontierBlock(np.array([e.x for e in entries]), [e.url for e in entries], parent)


def same(a, b):
    return a.url == b.url and a.parent == b.parent and np.array_equal(a.x, b.x)


def fill(tree, url):
    """Mark url fetched on the tree as the fetch that takes its domain to the cap."""
    tree.mark_fetched(url, True)


def leaf_predicates(tree, target_leaf):
    """Collect (feature, threshold, goes_left) from the root to a leaf."""
    path = []

    def walk(node, acc):
        if node is target_leaf:
            path.extend(acc)
            return True
        if node.is_leaf:
            return False
        return (walk(node.left, acc + [(node.feature, node.threshold, True)])
                or walk(node.right, acc + [(node.feature, node.threshold, False)]))

    walk(tree.root, [])
    return path


def satisfies(x, predicates):
    return all((x[f] < c) == left for f, c, left in predicates)


FIXTURE_X = np.array([[0.1], [0.2], [0.8], [0.9]])
FIXTURE_Y = np.array([0.0, 0.0, 1.0, 1.0])


class TestBestSplit:
    def test_pure_leaf_never_splits(self):
        X = np.random.default_rng(0).uniform(size=(10, 3))
        assert best_split(X, np.ones(10)) is None
        assert best_split(X, np.zeros(10)) is None

    def test_singleton_leaf(self):
        assert best_split(np.array([[0.5]]), np.array([1.0])) is None

    def test_four_sample_fixture(self):
        f, c, vr = best_split(FIXTURE_X, FIXTURE_Y)
        assert (f, c) == (0, 0.5)
        assert vr == pytest.approx(0.25, abs=1e-12)  # parent var 0.25, children pure

    def test_random_leaf_matches_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(50, 8))
        y = rng.integers(0, 2, size=50).astype(float)
        assert best_split(X, y) == oracle_best_split(X, y)

    def test_many_random_leaves_match_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            d = int(rng.integers(1, 9))
            # duplicated feature values exercise the distinct-midpoint rule
            X = np.round(rng.uniform(size=(n, d)), 2)
            y = rng.integers(0, 2, size=n).astype(float)
            got = best_split(X, y)
            expected = oracle_best_split(X, y)
            if expected is None:
                assert got is None
            else:
                assert got[:2] == expected[:2]
                assert got[2] == pytest.approx(expected[2], abs=1e-9)


    def test_scan_equals_loop_on_crawl_shaped_leaves(self):
        rng = np.random.default_rng(41)
        sizes = [2, 3, 4, 5, 17, 600] + list(rng.integers(2, 601, size=194))
        for n in sizes:
            X = crawl_shaped_rows(rng, n)
            if rng.random() < 0.2:
                X[:, rng.integers(0, 8)] = 0.5  # a constant column
            if rng.random() < 0.2:
                # near-tie: a copy of one column with one value nudged
                f, g = rng.choice(8, size=2, replace=False)
                X[:, g] = X[:, f]
                X[rng.integers(0, n), g] += 1e-12
            y = crawl_shaped_rewards(rng, n)
            assert best_split(X, y) == loop_best_split(X, y), n

    def test_scan_equals_loop_on_exact_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 80))
            base = crawl_shaped_rows(rng, n)[:, 5]
            # same partitions under different features: the lowest wins
            X = np.column_stack([base * 0, base, base * 2 + 1, base])
            y = crawl_shaped_rewards(rng, n)
            got = best_split(X, y)
            assert got == loop_best_split(X, y)
            assert got is None or got[0] == 1

    def test_scan_on_uniform_leaves_matches_loop(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            n = int(rng.integers(2, 120))
            X = rng.uniform(size=(n, int(rng.integers(1, 9))))
            y = rng.normal(size=n) if rng.random() < 0.5 else rng.integers(0, 2, n) * 1.0
            assert best_split(X, y) == loop_best_split(X, y)


class TestInsertExperience:
    def test_first_insert_no_split(self):
        tree = TreeFrontier()
        assert tree.insert_experience(np.array([0.1]), 0.0) is False
        assert tree.leaf_count == 1

    def test_fixture_split_and_rerouting(self):
        tree = TreeFrontier()
        tree.insert_frontier(block([entry([0.3], url="http://x.com/l"),
                                    entry([0.7], url="http://x.com/r")]))
        split_seen = False
        for x, r in zip(FIXTURE_X, FIXTURE_Y):
            split_seen = tree.insert_experience(x, r) or split_seen
        assert split_seen
        assert tree.leaf_count == 2
        assert tree.root.feature == 0 and tree.root.threshold == 0.5
        left, right = tree.root.left, tree.root.right
        assert (len(left.exp_r), len(right.exp_r)) == (2, 2)
        assert [e.url for e in left.frontier] == ["http://x.com/l"]
        assert [e.url for e in right.frontier] == ["http://x.com/r"]
        for leaf in tree.leaves():
            predicates = leaf_predicates(tree, leaf)
            for x in leaf.exp_x:
                assert satisfies(x, predicates)
            for e in leaf.frontier:
                assert satisfies(e.x, predicates)

    def test_splits_match_oracle_during_stream(self):
        rng = np.random.default_rng(3)
        tree = TreeFrontier()
        deltas = []
        for i in range(400):
            x = rng.uniform(size=4)
            r = float(rng.integers(0, 2))
            target_leaf = tree._route(x)
            predicted = oracle_best_split(
                np.vstack([target_leaf.exp_x, x]),
                np.append(target_leaf.exp_r, r)) if len(target_leaf.exp_r) else None
            before = tree.leaf_count
            split = tree.insert_experience(x, r)
            deltas.append(tree.leaf_count - before)
            assert split == (predicted is not None)
            if split:
                assert target_leaf.feature == predicted[0]
                assert target_leaf.threshold == predicted[1]
                # the realized reduction is the oracle's and non-negative
                assert predicted[2] > 0
        assert set(deltas) <= {0, 1}
        assert tree.leaf_count <= 1 + 400

    def test_array_leaves_follow_list_reference(self):
        """Array-backed leaves split and re-route experience exactly as a
        tree of per-leaf lists searched by the loop does, including after
        their arrays grow."""
        rng = np.random.default_rng(44)
        tree = TreeFrontier()
        # reference leaves: leaf id -> (rows, rewards, path predicates)
        ref = {0: ([], [], [])}
        growths = 0
        for _ in range(1000):
            x = crawl_shaped_rows(rng, 1)[0]
            r = float(rng.random() < (0.6 if x[5] > 0.7 else 0.05))
            leaf = tree._route(x)
            (leaf_id, (rows, rewards, path)), = [
                (k, v) for k, v in ref.items() if satisfies(x, v[2])]
            assert leaf.leaf_id == leaf_id
            capacity = len(leaf._r)
            rows.append(x)
            rewards.append(r)
            expected = loop_best_split(np.stack(rows), np.array(rewards))
            split = tree.insert_experience(x, r)
            assert split == (expected is not None)
            if split:
                f, c, _ = expected
                assert (leaf.feature, leaf.threshold) == (f, c)
                del ref[leaf_id]
                for child, left in ((leaf.left, True), (leaf.right, False)):
                    keep = [j for j, row in enumerate(rows) if (row[f] < c) == left]
                    ref[child.leaf_id] = ([rows[j] for j in keep],
                                          [rewards[j] for j in keep],
                                          path + [(f, c, left)])
            else:
                growths += len(leaf._r) != capacity
        assert growths >= 10
        assert max(leaf.n_exp for leaf in tree.leaves()) > 64
        assert sorted(ref) == sorted(leaf.leaf_id for leaf in tree.leaves())
        for leaf in tree.leaves():
            rows, rewards, _ = ref[leaf.leaf_id]
            assert np.array_equal(leaf.exp_x, np.stack(rows))
            assert np.array_equal(leaf.exp_r, np.array(rewards))

    def test_experience_conservation(self):
        rng = np.random.default_rng(4)
        tree = TreeFrontier()
        for _ in range(300):
            tree.insert_experience(rng.uniform(size=3), float(rng.integers(0, 2)))
        assert sum(len(l.exp_r) for l in tree.leaves()) == 300
        assert tree.n_experience == 300


class TestInsertFrontier:
    def test_single_root_leaf(self):
        tree = TreeFrontier()
        tree.insert_frontier(block([entry([0.2]), entry([0.9])]))
        assert len(tree.root.frontier) == 2

    def test_boundary_routes_right(self):
        tree = TreeFrontier()
        for x, r in zip(FIXTURE_X, FIXTURE_Y):
            tree.insert_experience(x, r)
        tree.insert_frontier(block([entry([0.5], url="http://x.com/edge")]))
        assert [e.url for e in tree.root.right.frontier] == ["http://x.com/edge"]

    def test_random_entries_satisfy_predicates(self):
        rng = np.random.default_rng(5)
        tree = TreeFrontier()
        for _ in range(200):
            tree.insert_experience(rng.uniform(size=5), float(rng.integers(0, 2)))
        entries = [entry(rng.uniform(size=5), url=f"http://x.com/{i}")
                   for i in range(500)]
        tree.insert_frontier(block(entries))
        total = 0
        for leaf in tree.leaves():
            predicates = leaf_predicates(tree, leaf)
            for e in leaf.frontier:
                assert satisfies(e.x, predicates)
            total += len(leaf.frontier)
        assert total == 500 and tree.frontier_size == 500

    @pytest.mark.parametrize("x, n_urls", [(np.zeros((1, 2)), 3), (np.zeros((3, 2)), 1),
                                           (np.zeros(3), 3), ([[0.1, 0.2]], 1)],
                             ids=["one-row-three-urls", "three-rows-one-url", "one-d", "list"])
    def test_block_shape_must_match_its_urls(self, x, n_urls):
        urls = [f"http://x.com/{i}" for i in range(n_urls)]
        shape = re.escape(str(np.shape(x)))
        with pytest.raises(ValueError, match=rf"{n_urls} URLs.* of shape {shape}"):
            FrontierBlock(x, urls, None)

    def test_block_of_other_width_leaves_store_untouched(self):
        tree = TreeFrontier()
        tree.insert_frontier(block([entry([0.1, 0.2])]))
        with pytest.raises(ValueError, match=r"shape \(1, 3\) .* shape \(1, 2\)"):
            tree.insert_frontier(FrontierBlock(np.zeros((1, 3)), ["http://x.com/b"], None))
        store = tree._store
        assert store.n == len(store.url) == len(store.parent) == tree.frontier_size == 1
        tree.insert_frontier(block([entry([0.3, 0.4], url="http://x.com/c")]))
        assert [e.url for e in tree.root.frontier] == ["http://x.com/a", "http://x.com/c"]


class TestRepresentatives:
    def test_single_entry(self):
        tree = TreeFrontier()
        e = entry([0.5])
        tree.insert_frontier(block([e]))
        reps = tree.sample_representatives(np.random.default_rng(0))
        assert len(reps) == 1 and same(tree._store.entry(reps[0][2]), e)

    def test_uniform_within_leaf(self):
        tree = TreeFrontier()
        urls = [f"http://x.com/{c}" for c in "abcd"]
        tree.insert_frontier(block([entry([0.5], url=u) for u in urls]))
        rng = np.random.default_rng(6)
        counts = {u: 0 for u in urls}
        n = 100_000
        for _ in range(n):
            (_, _, row), = tree.sample_representatives(rng)
            counts[tree._store.entry(row).url] += 1
        for u in urls:
            assert abs(counts[u] / n - 0.25) < 0.02

    def test_empty_leaves_skipped(self):
        tree = TreeFrontier()
        rng = np.random.default_rng(7)
        for _ in range(200):
            tree.insert_experience(rng.uniform(size=2), float(rng.integers(0, 2)))
        leaves = tree.leaves()
        assert len(leaves) >= 5
        # a leaf's own experience routes back to it
        tree.insert_frontier(block([entry(leaf.exp_x[0], url=f"http://x.com/{leaf.leaf_id}")
                                    for leaf in leaves[:3]]))
        reps = tree.sample_representatives(np.random.default_rng(8))
        assert len(reps) == 3

    def test_all_empty_gives_empty_sequence(self):
        tree = TreeFrontier()
        assert tree.sample_representatives(np.random.default_rng(0)) == []


class _UrlQ:
    """Q-network stub keyed on the first feature value."""

    def __init__(self, fn):
        self.fn = fn

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(self.fn(x))
        return np.array([self.fn(row) for row in x])


class TestUpdate:
    def build_two_leaf_tree(self):
        tree = TreeFrontier()
        for x, r in zip(FIXTURE_X, FIXTURE_Y):
            tree.insert_experience(x, r)
        assert tree.leaf_count == 2
        return tree

    def test_single_leaf_single_entry_both_modes(self):
        for mode in ("explore", "greedy"):
            tree = TreeFrontier()
            e = entry([0.5], url="http://x.com/only")
            qnet = _UrlQ(lambda row: 0.0)
            selected, info = tree.update(None, block([e]), mode, qnet,
                                         np.random.default_rng(0))
            assert same(selected, e)
            assert tree.frontier_size == 0
            assert info.frontier_size == 1

    def test_greedy_argmax_and_removal(self):
        tree = self.build_two_leaf_tree()
        entries = [entry([0.1], url="http://x.com/q1"),
                   entry([0.2], url="http://x.com/q7"),
                   entry([0.8], url="http://x.com/q3")]
        qvals = {"http://x.com/q1": 0.1, "http://x.com/q7": 0.7, "http://x.com/q3": 0.3}
        # representatives are one per leaf: left leaf holds q1/q7, right q3
        rng = np.random.default_rng(1)
        tree.insert_frontier(block(entries))
        before = len(tree.root.left.frontier)

        def q_of(row):
            for e in entries:
                if np.array_equal(e.x, row):
                    return qvals[e.url]
            raise KeyError(row)

        selected, info = tree.update(None, None, "greedy", _UrlQ(q_of), rng)
        assert selected.url in ("http://x.com/q1", "http://x.com/q7", "http://x.com/q3")
        # the representative of the left leaf is drawn uniformly; whichever it
        # was, the selection is the argmax among the representatives
        assert info.q_evaluations == 2
        if selected.url == "http://x.com/q3":
            drawn_left_q = 0.1  # q3 (0.3) only wins when q1 was the left draw
            assert len(tree.root.right.frontier) == 0
        else:
            assert selected.url == "http://x.com/q7"
            assert len(tree.root.left.frontier) == before - 1

    def test_explore_uniform_over_leaves_not_entries(self):
        rng = np.random.default_rng(2)
        picks = {"left": 0, "right": 0}
        for _ in range(4000):
            tree = self.build_two_leaf_tree()
            entries = [entry([0.1], url="http://x.com/left")]
            entries += [entry([0.8], url=f"http://x.com/right{i}") for i in range(9)]
            tree.insert_frontier(block(entries))
            selected, _ = tree.update(None, None, "explore", None, rng)
            picks["left" if selected.url == "http://x.com/left" else "right"] += 1
        frac_left = picks["left"] / 4000
        assert abs(frac_left - 0.5) < 0.03  # leaf-uniform, not entry-uniform

    def test_exhaustion_raises(self):
        tree = TreeFrontier()
        with pytest.raises(FrontierExhaustedError):
            tree.update(None, None, "explore", None, np.random.default_rng(0))

    def test_lazy_invalidation_purges_fetched(self):
        # dead entry alone in the left leaf: sampling must encounter it,
        # purge it, and fall through to the live entry in the right leaf
        tree = self.build_two_leaf_tree()
        dead = entry([0.1], url="http://x.com/dead")
        live = entry([0.8], url="http://x.com/live")
        tree.insert_frontier(block([dead, live]))
        tree.mark_fetched("http://x.com/dead", False)
        selected, info = tree.update(None, None, "explore", None,
                                     np.random.default_rng(3))
        assert same(selected, live)
        assert info.n_representatives == 1
        assert tree.frontier_size == 0  # dead purged, live removed by selection

    def test_saturated_leaf_yields_no_representative(self):
        tree = self.build_two_leaf_tree()
        tree.insert_frontier(block([entry([0.1], url="http://full.com/a"),
                                    entry([0.8], url="http://open.com/b")]))
        fill(tree, "http://full.com/")
        selected, info = tree.update(None, None, "explore", None,
                                     np.random.default_rng(4))
        assert selected.url == "http://open.com/b"
        assert info.n_representatives == 1
        assert tree.frontier_size == 0  # saturated entry dropped by the draw

    def test_saturated_entry_checked_once(self):
        # A domain cap only ever saturates more domains, so the draw that
        # meets a saturated entry drops it instead of rechecking it later.
        tree = TreeFrontier()
        tree.insert_frontier(block([entry([0.5], url=f"http://{d}.com/{i}")
                                    for d in ("full", "open") for i in range(30)]))
        fill(tree, "http://full.com/")
        rng = np.random.default_rng(14)
        stored_full = 30
        for i in range(40):
            selected, _ = tree.update(None, block([entry([0.5], url=f"http://new.com/{i}")]),
                                      "explore", None, rng)
            assert not selected.url.startswith("http://full.com")
            left = sum(e.url.startswith("http://full.com") for e in tree.root.frontier)
            assert left <= stored_full
            stored_full = left
            # 30 live entries stay (30 + 40 new - 40 taken); every met one is gone
            assert tree.frontier_size == len(tree.root.frontier) == 30 + stored_full
        assert stored_full < 30  # 30 + 30 + 40 new - 40 taken

    def test_all_saturated_exhausts(self):
        tree = TreeFrontier()
        tree.insert_frontier(block([entry([0.5], url="http://full.com/a")]))
        with pytest.raises(FrontierExhaustedError):
            fill(tree, "http://full.com/")
            tree.update(None, None, "explore", None, np.random.default_rng(5))

    @pytest.mark.parametrize("mode, qnet", [("bogus", _UrlQ(lambda row: 0.0)),
                                            ("greedy", None), ("synchronous", None)])
    def test_bad_call_leaves_tree_untouched(self, mode, qnet):
        tree = self.build_two_leaf_tree()
        tree.insert_frontier(block([entry([x], url=f"http://x.com/{x}") for x in (0.1, 0.9)]))
        tree.mark_fetched("http://x.com/0.1", False)
        rng = np.random.default_rng(3)
        before = (tree.frontier_size, tree.leaf_count, tree.n_experience,
                  rng.bit_generator.state)
        with pytest.raises(ValueError):
            tree.update(([0.8], 1.0), block([entry([0.2], url="http://x.com/new")]), mode,
                        qnet, rng)
        assert (tree.frontier_size, tree.leaf_count, tree.n_experience,
                rng.bit_generator.state) == before

    def test_update_counts_at_most_one_split(self):
        rng = np.random.default_rng(7)
        tree = TreeFrontier()
        counts = []
        for i in range(300):
            e_new = (rng.uniform(size=3), float(rng.integers(0, 2)))
            f_new = block([entry(rng.uniform(size=3), url=f"http://x.com/{i}-{j}")
                           for j in range(3)])
            before = tree.leaf_count
            tree.update(e_new, f_new, "explore", None, rng)
            counts.append(tree.leaf_count - before)
        assert set(counts) <= {0, 1}


class TestMarkFetched:
    """A mark holds for every entry of the URL or domain, inserted before or after."""

    MODES = ("explore", "greedy", "synchronous")

    @staticmethod
    def drain(tree, f_new, mode):
        """The URLs selected until the frontier is exhausted."""
        qnet = _UrlQ(lambda row: float(row[0]))
        rng = np.random.default_rng(15)
        picked = []
        while True:
            try:
                selected, _ = tree.update(None, f_new, mode, qnet, rng)
            except FrontierExhaustedError:
                return picked
            picked.append(selected.url)
            f_new = None

    @pytest.mark.parametrize("mode", MODES)
    def test_url_fetched_before_insert_never_selected(self, mode):
        tree = TreeFrontier()
        tree.mark_fetched("http://x.com/old", False)
        tree.insert_frontier(block([entry([0.9], url="http://x.com/old"),
                                    entry([0.1], url="http://x.com/new")]))
        again = block([entry([0.8], url="http://x.com/old", parent="http://y.com/")])
        assert self.drain(tree, again, mode) == ["http://x.com/new"]
        assert tree.frontier_size == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_full_domain_kills_later_entries(self, mode):
        tree = TreeFrontier()
        tree.insert_frontier(block([entry([0.2], url="http://full.com/a"),
                                    entry([0.1], url="http://open.com/a")]))
        fill(tree, "http://full.com/")
        later = block([entry([0.9], url=f"http://full.com/{i}") for i in range(3)]
                      + [entry([0.05 * i], url=f"http://open.com/{i}") for i in range(3)])
        picked = self.drain(tree, later, mode)
        assert sorted(picked) == ["http://open.com/0", "http://open.com/1",
                                  "http://open.com/2", "http://open.com/a"]
        assert tree.frontier_size == 0


class TestSynchronous:
    """Run through update_synchronous; TestSynchronousMode reruns every test
    through update(..., "synchronous", ...)."""

    @staticmethod
    def sync(tree, e_new, f_new, qnet):
        return tree.update_synchronous(e_new, f_new, qnet)

    def test_evaluations_equal_frontier_size(self):
        rng = np.random.default_rng(8)
        tree = TreeFrontier()
        qnet = _UrlQ(lambda row: float(row[0]))
        total = 0
        for i in range(50):
            e_new = (rng.uniform(size=3), float(rng.integers(0, 2)))
            f_new = block([entry(rng.uniform(size=3), url=f"http://x.com/{i}-{j}")
                           for j in range(4)])
            before = tree.q_evaluations
            _, info = self.sync(tree, e_new, f_new, qnet)
            assert info.q_evaluations == info.frontier_size
            assert tree.q_evaluations - before == info.frontier_size
            total += info.q_evaluations
        assert tree.q_evaluations == total

    def test_matches_greedy_update_when_leaves_hold_single_entries(self):
        rng = np.random.default_rng(9)
        qnet = _UrlQ(lambda row: float(np.sum(row)))

        def build():
            tree = TreeFrontier()
            for _ in range(120):
                tree.insert_experience(rng2.uniform(size=3), float(rng2.integers(0, 2)))
            # exactly one frontier entry per leaf: a leaf's own experience
            # routes back to it
            tree.insert_frontier(block([entry(leaf.exp_x[0].copy(),
                                              url=f"http://x.com/{leaf.leaf_id}")
                                        for leaf in tree.leaves()]))
            assert all(len(leaf.frontier) == 1 for leaf in tree.leaves())
            return tree

        rng2 = np.random.default_rng(10)
        tree_a = build()
        rng2 = np.random.default_rng(10)
        tree_b = build()
        assert tree_a.leaf_count == tree_b.leaf_count >= 3
        picked_a, _ = tree_a.update(None, None, "greedy", qnet, np.random.default_rng(11))
        picked_b, _ = self.sync(tree_b, None, None, qnet)
        assert picked_a.url == picked_b.url

    def test_saturated_entries_dropped_for_good(self):
        tree = TreeFrontier()
        full = [entry([0.9], url=f"http://full.com/{i}") for i in range(5)]
        open_ = [entry([0.1 * i], url=f"http://open.com/{i}") for i in range(4)]
        tree.insert_frontier(block(full + open_))
        fill(tree, "http://full.com/")
        qnet = _UrlQ(lambda row: float(row[0]))
        selected, info = self.sync(tree, None, None, qnet)
        assert selected.url == "http://open.com/3"  # full.com scores higher
        assert info.frontier_size == 4  # the five saturated entries are gone
        assert info.q_evaluations == info.frontier_size
        assert tree.frontier_size == 3
        assert all(e.url.startswith("http://open.com") for e in tree.root.frontier)

    def test_all_saturated_exhausts(self):
        tree = TreeFrontier()
        tree.insert_frontier(block([entry([0.5], url=f"http://full.com/{i}") for i in range(3)]))
        fill(tree, "http://full.com/")
        with pytest.raises(FrontierExhaustedError):
            self.sync(tree, None, None, _UrlQ(lambda row: 0.0))
        assert tree.frontier_size == 0


class TestSynchronousMode(TestSynchronous):
    @staticmethod
    def sync(tree, e_new, f_new, qnet):
        return tree.update(e_new, f_new, "synchronous", qnet, None)


class TestDeterminism:
    def script(self, seed):
        rng = np.random.default_rng(seed)
        tree = TreeFrontier()
        selections = []
        qnet = _UrlQ(lambda row: float(row[0] - row[1]))
        for i in range(200):
            e_new = (rng.uniform(size=3), float(rng.integers(0, 2)))
            f_new = block([entry(rng.uniform(size=3), url=f"http://x.com/{i}-{j}")
                           for j in range(3)])
            mode = "greedy" if i % 3 == 0 else "explore"
            selected, _ = tree.update(e_new, f_new, mode, qnet, rng)
            selections.append(selected.url)
        return selections, tree.snapshot()

    def test_fixed_seed_reproduces_tree_and_selections(self):
        a = self.script(42)
        b = self.script(42)
        assert a == b
        c = self.script(43)
        assert a != c


class TestFlatFrontier:
    def test_uniform_selection(self):
        rng = np.random.default_rng(12)
        counts = {}
        for _ in range(20_000):
            flat = FlatFrontier()
            flat.insert(block([entry([0.0], url=f"http://x.com/{i}") for i in range(4)]))
            chosen = flat.select(rng)
            counts[chosen.url] = counts.get(chosen.url, 0) + 1
        for url, count in counts.items():
            assert abs(count / 20_000 - 0.25) < 0.02

    def test_purge_and_exhaustion(self):
        flat = FlatFrontier()
        flat.insert(block([entry([0.0], url="http://x.com/dead")]))
        flat.mark_fetched("http://x.com/dead", False)
        with pytest.raises(FrontierExhaustedError):
            flat.select(np.random.default_rng(0))
        assert flat.frontier_size == 0

    def test_saturated_dropped(self):
        flat = FlatFrontier()
        flat.insert(block([entry([0.0], url="http://full.com/a"),
                           entry([0.0], url="http://open.com/b")]))
        fill(flat, "http://full.com/")
        # seed 1 draws the saturated entry first; the draw drops it
        chosen = flat.select(np.random.default_rng(1))
        assert chosen.url == "http://open.com/b"
        assert flat.frontier_size == 0

    def test_stays_one_leaf(self):
        rng = np.random.default_rng(13)
        flat = FlatFrontier()
        for i in range(30):
            flat.insert(block([entry(rng.uniform(size=3), url=f"http://x.com/{i}-{j}")
                               for j in range(3)]))
            flat.select(rng)
            assert flat.leaf_count == 1
        assert flat.frontier_size == 60
        assert flat.n_experience == 0 and flat.q_evaluations == 0


class TestSnapshot:
    def test_snapshot_structure(self):
        tree = TreeFrontier()
        for x, r in zip(FIXTURE_X, FIXTURE_Y):
            tree.insert_experience(x, r)
        tree.insert_frontier(block([entry([0.3])]))
        snap = tree.snapshot()
        assert snap["leaf_count"] == 2
        assert snap["frontier_size"] == 1
        assert snap["tree"]["feature"] == 0
        assert snap["tree"]["threshold"] == 0.5
        assert snap["tree"]["left"]["experience"] == 2
