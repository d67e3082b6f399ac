import math

import numpy as np
import pytest

from treecrawl.embeddings import KeywordSet
from treecrawl.graph import (ClosureViolationError, CrawlGraph, GraphIntegrityError,
                             OutlinkCandidate, build_state_action, build_state_actions,
                             seed_state_action)
from treecrawl.reward import RelevanceModel
from treecrawl.text import tokenize
from treecrawl.urls import domain_of


@pytest.fixture
def kws():
    return KeywordSet(frozenset({"football", "sports"}))


def stub_model(probability):
    """Constant-probability relevance model: zero weights, bias = logit(p)."""
    bias = math.log(probability / (1.0 - probability))
    return RelevanceModel(weights=np.zeros(3), bias=bias, mu=1.0, threshold=0.5)


def walk_oracle(graph, url):
    """Recompute (depth, dist_to_relevant, path stats) by walking parents."""
    chain = graph.walk_path(url)
    rewards = [graph.nodes[u].reward for u in chain]
    depth = len(chain) - 1
    dist = math.inf
    for hops, u in enumerate(reversed(chain)):
        if graph.nodes[u].reward == 1:
            dist = hops
            break
    return depth, dist, sum(rewards), len(chain)


class TestRegisterFetch:
    def test_seed_initialization(self):
        g = CrawlGraph()
        node = g.register_fetch(None, "http://a.com/seed", 1)
        assert (node.depth, node.reward, node.dist_to_relevant) == (0, 1, 0)
        assert node.path_relevant / node.path_length == 1.0

    def test_chain_distances_match_walk(self):
        g = CrawlGraph()
        g.register_fetch(None, "http://w.org/seed", 1)
        g.register_fetch("http://w.org/seed", "http://w.org/a", 1)
        g.register_fetch("http://w.org/a", "http://w.org/c", 0)
        node = g.nodes["http://w.org/c"]
        assert node.dist_to_relevant == 1
        assert walk_oracle(g, "http://w.org/c") == (2, 1, 2, 3)

    def test_refetch_rejected(self):
        g = CrawlGraph()
        g.register_fetch(None, "http://a.com/x", 1)
        with pytest.raises(ClosureViolationError):
            g.register_fetch(None, "http://a.com/x", 1)

    def test_unknown_parent_rejected(self):
        g = CrawlGraph()
        with pytest.raises(GraphIntegrityError):
            g.register_fetch("http://nowhere.com", "http://a.com/x", 0)


class TestStateFeatures:
    def test_worked_path_example(self):
        # seed(1) -> A(1) -> C(0); C is the parent under inspection
        g = CrawlGraph()
        g.register_fetch(None, "http://en.wikipedia.org/seed", 1)
        g.register_fetch("http://en.wikipedia.org/seed", "http://en.wikipedia.org/a", 1)
        g.register_fetch("http://en.wikipedia.org/a", "http://en.wikipedia.org/c", 0)
        s = g.state_features("http://en.wikipedia.org/c")
        assert s[0] == 0.0
        assert s[1] == 0.5
        assert s[2] == pytest.approx(2.0 / 3.0)

    def test_relevant_parent(self):
        g = CrawlGraph()
        g.register_fetch(None, "http://a.com/s", 1)
        s = g.state_features("http://a.com/s")
        assert s[0] == 1.0 and s[1] == 1.0

    def test_no_relevant_ancestor(self):
        g = CrawlGraph()
        g.register_fetch(None, "http://a.com/s", 0)
        g.register_fetch("http://a.com/s", "http://a.com/x", 0)
        s = g.state_features("http://a.com/x")
        assert s[1] == 0.0

    def test_unfetched_parent_rejected(self):
        g = CrawlGraph()
        with pytest.raises(GraphIntegrityError):
            g.state_features("http://a.com/na")

    def test_random_path_matches_walk_oracle(self):
        rng = np.random.default_rng(5)
        g = CrawlGraph()
        urls = ["http://d.com/p0"]
        g.register_fetch(None, urls[0], 1)
        for i in range(1, 10):
            url = f"http://d.com/p{i}"
            g.register_fetch(urls[-1], url, int(rng.integers(0, 2)))
            urls.append(url)
        for url in urls:
            depth, dist, rel, length = walk_oracle(g, url)
            node = g.nodes[url]
            assert node.depth == depth
            assert node.dist_to_relevant == dist
            assert (node.path_relevant, node.path_length) == (rel, length)
            s = g.state_features(url)
            expected_s2 = 0.0 if dist is math.inf else 1.0 / (1.0 + dist)
            assert s[1] == expected_s2
            assert s[2] == rel / length


class TestHubFeatures:
    def test_unknown_domain(self):
        g = CrawlGraph()
        assert g.hub_features("http://never.seen/x") == (0.0, 0.5)

    def test_three_of_four(self):
        g = CrawlGraph()
        g.register_fetch(None, "http://en.wikipedia.org/seed", 1)
        g.register_fetch("http://en.wikipedia.org/seed", "http://en.wikipedia.org/a", 1)
        g.register_fetch("http://en.wikipedia.org/a", "http://en.wikipedia.org/c", 0)
        g.register_fetch("http://en.wikipedia.org/seed", "http://en.wikipedia.org/e", 1)
        assert g.hub_features("http://en.wikipedia.org/d") == (0.75, 1.0)

    def test_zero_relevant_domain_recount(self):
        g = CrawlGraph()
        g.register_fetch(None, "http://z.com/0", 0)
        last = "http://z.com/0"
        for i in range(1, 5):
            url = f"http://z.com/{i}"
            g.register_fetch(last, url, 0)
            last = url
        # recount from stored nodes as an independent tally
        fetched = sum(1 for u in g.nodes if domain_of(u) == "z.com")
        relevant = sum(g.nodes[u].reward for u in g.nodes if domain_of(u) == "z.com")
        assert (fetched, relevant) == (5, 0)
        assert g.hub_features("http://z.com/next") == (0.0, 1.0)


def build_worked_graph():
    """Four fetched pages on one domain, three relevant; the path of interest
    is seed(1) -> A(1) -> C(0)."""
    g = CrawlGraph()
    g.register_fetch(None, "http://en.wikipedia.org/seed", 1)
    g.register_fetch("http://en.wikipedia.org/seed", "http://en.wikipedia.org/a", 1)
    g.register_fetch("http://en.wikipedia.org/a", "http://en.wikipedia.org/c", 0)
    g.register_fetch("http://en.wikipedia.org/seed", "http://en.wikipedia.org/e", 1)
    return g


class TestStateAction:
    def test_worked_example_vector(self, kws):
        g = build_worked_graph()
        candidate = OutlinkCandidate(url="http://en.wikipedia.org/d",
                                     anchor="unrelated anchor text", title="plain title")
        x = build_state_action(g, "http://en.wikipedia.org/c", candidate,
                               stub_model(0.3), kws)
        expected = [0.0, 0.5, 2.0 / 3.0, 0.0, 0.0, 0.3, 0.75, 1.0]
        assert np.allclose(x, expected, atol=1e-12)

    def test_anchor_keyword_sets_a2(self, kws):
        g = CrawlGraph()
        g.register_fetch(None, "http://a.com/s", 1)
        candidate = OutlinkCandidate(url="http://b.com/x", anchor="best football news")
        x = build_state_action(g, "http://a.com/s", candidate, stub_model(0.5), kws)
        assert x[4] == 1.0

    def test_url_keyword_sets_a1(self, kws):
        g = CrawlGraph()
        g.register_fetch(None, "http://a.com/s", 1)
        candidate = OutlinkCandidate(url="http://b.com/Football-page", anchor="zz")
        x = build_state_action(g, "http://a.com/s", candidate, stub_model(0.5), kws)
        assert x[3] == 1.0

    def test_seed_vector_zero_state(self, kws):
        candidate = OutlinkCandidate(url="http://a.com/seed", anchor="", title="hello")
        x = seed_state_action(candidate, stub_model(0.4), kws)
        assert np.array_equal(x[:3], [0.0, 0.0, 0.0])
        assert x.shape == (8,)
        assert (x[6], x[7]) == (0.0, 0.5)

    def test_hub_disabled_gives_six_features(self, kws):
        g = build_worked_graph()
        candidate = OutlinkCandidate(url="http://en.wikipedia.org/d", anchor="zz")
        x = build_state_action(g, "http://en.wikipedia.org/c", candidate,
                               stub_model(0.3), kws, hub_features=False)
        assert x.shape == (6,)
        seed_x = seed_state_action(candidate, stub_model(0.3), kws, hub_features=False)
        assert seed_x.shape == (6,)


def oracle_state_action(graph, parent, candidate, model, keywords, hub_features=True):
    """The per-candidate path that build_state_actions replaced, kept as its
    reference: action features for one candidate, concatenated to the state
    and hub features. The keyword helpers are written out as they were, so
    the reference shares no feature code with the block builder."""
    kws = keywords.combined
    low = candidate.url.lower()
    a1 = 1.0 if any(k in low for k in kws) else 0.0
    a2 = 1.0 if sum(1 for t in tokenize(candidate.anchor) if t in kws) > 0 else 0.0
    short = tokenize(candidate.title or candidate.anchor)
    count = sum(1 for t in short if t in kws)
    kv = np.array([min(count / model.mu, 1.0), count / len(short) if short else 0.0, a1],
                  dtype=np.float64)
    action = np.array([a1, a2, model.probability(kv)], dtype=np.float64)
    if parent is None:  # seed bootstrap: zero state, unknown-domain hub features
        state, hub = np.zeros(3, dtype=np.float64), [0.0, 0.5]
    else:
        state, hub = graph.state_features(parent), list(graph.hub_features(candidate.url))
    return np.concatenate([state, action, hub] if hub_features else [state, action])


class TestStateActionBlock:
    """build_state_actions must equal the per-candidate reference bit for bit."""

    @pytest.fixture(scope="class")
    def world_graph(self, acceptance_world):
        # The seed's subtree has finite distances to a relevant node; a second,
        # irrelevant root and its irrelevant child have infinite ones.
        world, keywords, model = acceptance_world
        g = CrawlGraph()
        seed = world.seed_urls[0]
        g.register_fetch(None, seed, 1)
        children = [url for url, _ in world.pages[seed].outlinks[:6]]
        for url in children:
            g.register_fetch(seed, url, int(world.pages[url].relevant))
        root = next(url for url in world.order
                    if url not in g and not world.pages[url].relevant
                    and any(t not in g and not world.pages[t].relevant
                            for t, _ in world.pages[url].outlinks))
        g.register_fetch(None, root, 0)
        child = next(t for t, _ in world.pages[root].outlinks
                     if t not in g and not world.pages[t].relevant)
        g.register_fetch(root, child, 0)
        parents = [seed, *children[:3], root, child]
        return world, keywords, model, g, parents

    def candidates(self, world, parent, with_titles):
        out = []
        for i, (target, anchor) in enumerate(world.pages[parent].outlinks):
            title = world.pages[target].title if with_titles else ""
            if i % 4 == 3:  # a keyword in the URL path sets a1
                target += "/" + sorted(world.keywords)[i % len(world.keywords)]
            out.append(OutlinkCandidate(url=target, anchor=anchor, title=title))
        return out

    @pytest.mark.parametrize("hub", [True, False])
    @pytest.mark.parametrize("with_titles", [False, True])
    def test_world_outlinks_match_reference(self, world_graph, hub, with_titles):
        world, keywords, model, g, parents = world_graph
        dists, known, a1 = set(), set(), set()
        for parent in parents:
            cands = self.candidates(world, parent, with_titles)
            block = build_state_actions(g, parent, cands, model, keywords, hub)
            oracle = np.stack([oracle_state_action(g, parent, c, model, keywords, hub)
                               for c in cands])
            assert block.shape == oracle.shape
            assert np.array_equal(block, oracle)
            dists.add(math.isinf(g.nodes[parent].dist_to_relevant))
            known.update(g.hub_features(c.url)[1] == 1.0 for c in cands)
            a1.update(block[:, 3])
        # The inputs cover both kinds of parent, of candidate domain and of URL.
        assert dists == {True, False} and known == {True, False} and a1 == {0.0, 1.0}

    @pytest.mark.parametrize("hub", [True, False])
    def test_seed_rows_match_reference(self, world_graph, hub):
        world, keywords, model, _, _ = world_graph
        seeds = [OutlinkCandidate(url=url, title=world.pages[url].title)
                 for url in world.order[:20]]
        block = build_state_actions(CrawlGraph(), None, seeds, model, keywords, hub)
        for row, seed in zip(block, seeds):
            oracle = oracle_state_action(None, None, seed, model, keywords, hub)
            assert np.array_equal(row, oracle)
            assert np.array_equal(seed_state_action(seed, model, keywords, hub), oracle)

    def test_no_candidates_gives_empty_block(self, world_graph):
        world, keywords, model, g, parents = world_graph
        assert build_state_actions(g, parents[0], [], model, keywords).shape == (0, 8)


class TestInvariants:
    def random_forest(self, seed, n=60):
        rng = np.random.default_rng(seed)
        g = CrawlGraph()
        urls = []
        for s in range(3):
            url = f"http://d{s}.com/seed"
            g.register_fetch(None, url, 1)
            urls.append(url)
        for i in range(n):
            parent = urls[int(rng.integers(0, len(urls)))]
            url = f"http://d{int(rng.integers(0, 6))}.com/p{i}"
            g.register_fetch(parent, url, int(rng.integers(0, 2)))
            urls.append(url)
        return g

    def test_incremental_stats_equal_walk(self):
        g = self.random_forest(7)
        for url in g.nodes:
            depth, dist, rel, length = walk_oracle(g, url)
            node = g.nodes[url]
            assert node.depth == depth
            assert node.dist_to_relevant == dist
            assert (node.path_relevant, node.path_length) == (rel, length)

    def test_domain_totals_equal_closure(self):
        g = self.random_forest(8)
        assert sum(s[0] for s in g.domain_stats.values()) == len(g.nodes)

    def test_feature_ranges_fuzz(self, kws):
        g = self.random_forest(9)
        model = stub_model(0.42)
        rng = np.random.default_rng(10)
        urls = list(g.nodes)
        for _ in range(100):
            parent = urls[int(rng.integers(0, len(urls)))]
            candidate = OutlinkCandidate(url=f"http://d{int(rng.integers(0, 9))}.com/x",
                                         anchor="some football words")
            x = build_state_action(g, parent, candidate, model, kws)
            assert x.shape == (8,)
            assert x[0] in (0.0, 1.0)
            assert 0.0 <= x[1] <= 1.0
            assert 0.0 <= x[2] <= 1.0
            assert x[3] in (0.0, 1.0) and x[4] in (0.0, 1.0)
            assert 0.0 <= x[5] <= 1.0
            assert 0.0 <= x[6] <= 1.0
            assert x[7] in (0.5, 1.0)
