import json

import numpy as np
import pytest

from treecrawl import crawler, graph
from treecrawl.crawler import (ConfigError, CrawlConfig, CrawlResult, crawl,
                               enforce_max_domain, metrics)
from treecrawl.fetch import SimFetcher
from treecrawl.graph import CrawlGraph, OutlinkCandidate, build_state_actions
from treecrawl.qlearn import AgentConfig
from treecrawl.embeddings import KeywordSet
from treecrawl.report import load_log, write_run

from conftest import make_world


@pytest.fixture
def kws():
    return KeywordSet(frozenset({"topic00", "topic01", "topic02"}))


def forced_choice_world():
    return make_world([
        ("http://seed.sim/s", True, "seed", "topic00 body",
         [("http://seed.sim/a", "topic00 anchor")]),
        ("http://seed.sim/a", True, "topic00 page", "topic00 text body", []),
    ])


def all_relevant_world(n=15):
    pages = []
    for i in range(n):
        url = f"http://d{i % 3}.sim/p{i}"
        outlinks = [(f"http://d{(i + k) % 3}.sim/p{(i + k) % n}", "topic00 link")
                    for k in (1, 2)]
        pages.append((url, True, "topic00 title", "topic00 rich body", outlinks))
    return make_world(pages)


class TestCrawlBasics:
    def test_forced_choice_single_step(self, oracle_model, kws):
        world = forced_choice_world()
        cfg = CrawlConfig(seeds=world.seed_urls, budget=1, policy="tres", rng_seed=0)
        result = crawl(cfg, SimFetcher(world), oracle_model, kws)
        assert result.status == "completed"
        assert result.fetched == [("http://seed.sim/a", 1, 0)]
        assert result.harvest_rate == 1.0

    @pytest.mark.parametrize("policy", ["tres", "tree_random", "random",
                                        "synchronous_tres"])
    def test_all_relevant_world_any_policy(self, policy, oracle_model, kws):
        world = all_relevant_world()
        cfg = CrawlConfig(seeds=world.seed_urls, budget=10, policy=policy, rng_seed=1)
        result = crawl(cfg, SimFetcher(world), oracle_model, kws)
        assert result.harvest_rate == 1.0

    def test_no_url_fetched_twice(self, oracle_model, kws, chain_world):
        cfg = CrawlConfig(seeds=chain_world.seed_urls, budget=11, policy="tres",
                          rng_seed=2)
        result = crawl(cfg, SimFetcher(chain_world), oracle_model, kws)
        urls = [u for u, _, _ in result.fetched]
        assert len(urls) == len(set(urls)) == 11

    def test_exhaustion_returns_partial_result(self, oracle_model, kws, chain_world):
        cfg = CrawlConfig(seeds=chain_world.seed_urls, budget=50, policy="tres",
                          rng_seed=3)
        result = crawl(cfg, SimFetcher(chain_world), oracle_model, kws)
        assert result.status == "exhausted"
        assert len(result.fetched) == 11  # 12 pages, one is the seed

    def test_failed_fetch_consumes_step_with_zero_reward(self, oracle_model, kws):
        world = make_world([
            ("http://seed.sim/s", True, "seed", "topic00",
             [("http://seed.sim/void", "gone"), ("http://seed.sim/a", "topic00")]),
            ("http://seed.sim/a", True, "t", "topic00 body", []),
        ])
        cfg = CrawlConfig(seeds=world.seed_urls, budget=2, policy="random", rng_seed=5)
        result = crawl(cfg, SimFetcher(world), oracle_model, kws)
        rewards = {u: r for u, r, _ in result.fetched}
        assert rewards["http://seed.sim/void"] == 0
        assert rewards["http://seed.sim/a"] == 1
        assert len(result.fetched) == 2

    def test_config_validation(self, oracle_model, kws):
        with pytest.raises(ConfigError):
            CrawlConfig(seeds=[], budget=5).validate()
        with pytest.raises(ConfigError):
            CrawlConfig(seeds=["http://a.com"], budget=0).validate()
        with pytest.raises(ConfigError):
            CrawlConfig(seeds=["http://a.com"], budget=1, policy="best").validate()
        with pytest.raises(ConfigError):
            CrawlConfig(seeds=["http://a.com"], budget=1, max_domain_visits=0).validate()
        valid = CrawlConfig(seeds=["http://a.com/"], budget=5).to_dict()
        for field, value in (("hub_features", "false"), ("hub_features", 1),
                             ("budget", "5"), ("budget", 5.0), ("budget", True),
                             ("warmup_steps", "5"), ("rng_seed", 1.5),
                             ("max_text_len", None), ("max_domain_visits", 2.5),
                             ("max_domain_visits", "3"), ("seeds", "http://a.com/"),
                             ("seeds", ["http://a.com/", 3]), ("max_text_len", 0),
                             ("max_text_len", -1), ("warmup_steps", -5),
                             ("rng_seed", -1)):
            with pytest.raises(ConfigError, match=field):
                CrawlConfig.from_dict({**valid, field: value}).validate()
        for agent in (5, None, [1]):
            with pytest.raises(ConfigError, match="agent must be an object"):
                CrawlConfig.from_dict({**valid, "agent": agent})

    def test_config_round_trips_through_dict(self):
        cfg = CrawlConfig(seeds=["http://a.com"], budget=7, policy="random",
                          max_domain_visits=3, agent=AgentConfig(gamma=0.5))
        clone = CrawlConfig.from_dict(cfg.to_dict())
        assert clone == cfg
        # JSON turns the hidden-layer tuple into a list
        assert CrawlConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
        for key, record in (("budgett", {"budgett": 8}),
                            ("agent.learning_rat", {"agent": {"learning_rat": 0.1}})):
            with pytest.raises(ConfigError, match=key):
                CrawlConfig.from_dict({**cfg.to_dict(), **record})


    def test_random_is_the_tree_without_experience(self, oracle_model, kws, tmp_path):
        world = all_relevant_world(n=30)
        cfg = CrawlConfig(seeds=world.seed_urls, budget=20, policy="random",
                          max_domain_visits=8, rng_seed=3)
        result = crawl(cfg, SimFetcher(world), oracle_model, kws)
        assert len(result.steps) == 20
        for step in result.steps:
            assert (step.leaf_count, step.q_evals, step.split_occurred) == (1, 0, 0)
        assert "tree" not in write_run(result, tmp_path)
        assert not (tmp_path / "tree.json").exists()


class TestMaxDomain:
    def test_boundary(self):
        graph = CrawlGraph()
        graph.register_fetch(None, "http://d.com/0", 1)
        for i in range(1, 9):
            graph.register_fetch(f"http://d.com/{i-1}", f"http://d.com/{i}", 0)
        assert enforce_max_domain(graph, "http://d.com/next", 10) is True
        graph.register_fetch("http://d.com/8", "http://d.com/9", 0)
        assert enforce_max_domain(graph, "http://d.com/next", 10) is False

    def test_unlimited(self):
        graph = CrawlGraph()
        assert enforce_max_domain(graph, "http://any.com/x", None) is True

    def test_audit_over_full_crawl(self, oracle_model, kws):
        world = all_relevant_world(n=30)
        cfg = CrawlConfig(seeds=world.seed_urls, budget=30, policy="random",
                          max_domain_visits=3, rng_seed=7)
        result = crawl(cfg, SimFetcher(world), oracle_model, kws)
        counts = {}
        for record in result.log_records:
            counts[record["domain"]] = counts.get(record["domain"], 0) + 1
            assert all(v <= 3 for v in counts.values())  # holds at every prefix
        # the seed's own fetch occupies one slot of its domain
        seed_domain = "d0.sim"
        assert counts.get(seed_domain, 0) <= 3

    def test_saturated_entries_leave_the_frontier(self, acceptance_world, monkeypatch):
        # The cap is checked once per fetch, when the frontier is told that the
        # fetched URL's domain may be full, never once per entry drawn.
        world, keywords, model = acceptance_world
        registered, saturated = [], []
        register_fetch = CrawlGraph.register_fetch

        def counting_fetch(graph, parent, url, reward):
            registered.append(url)
            return register_fetch(graph, parent, url, reward)

        def counting_cap(graph, url, max_visits):
            assert url == registered[-1]  # right after the fetch it follows
            allowed = enforce_max_domain(graph, url, max_visits)
            saturated.append(not allowed)
            return allowed

        monkeypatch.setattr(CrawlGraph, "register_fetch", counting_fetch)
        monkeypatch.setattr(crawler, "enforce_max_domain", counting_cap)
        cfg = CrawlConfig(seeds=world.seed_urls, budget=600, max_domain_visits=10)
        result = crawl(cfg, SimFetcher(world), model, keywords)
        assert result.status == "completed"
        assert len(saturated) == len(registered) == len(world.seed_urls) + 600
        assert sum(saturated) > 0


class TestMetrics:
    def test_arithmetic(self):
        result = CrawlResult(
            fetched=[("http://a.com/1", 1, 0), ("http://a.com/2", 0, 1),
                     ("http://b.com/1", 1, 2), ("http://c.com/1", 1, 3)],
            status="completed", steps=[], log_records=[], losses=[])
        hr, relevant, unique = metrics(result)
        assert hr == 0.75
        assert unique == 3
        assert relevant == 3

    def test_single_relevant_domain(self):
        result = CrawlResult(
            fetched=[("http://a.com/1", 0, 0), ("http://b.com/1", 0, 1),
                     ("http://c.com/1", 1, 2)],
            status="completed", steps=[], log_records=[], losses=[])
        assert metrics(result) == (pytest.approx(1 / 3), 1, 3)

    def test_empty_result_warns(self):
        result = CrawlResult(fetched=[], status="completed", steps=[],
                             log_records=[], losses=[])
        with pytest.warns(UserWarning):
            assert metrics(result) == (0.0, 0, 0)

    def test_hr_equals_mean_reward_and_log_replay(self, oracle_model, kws, tmp_path):
        world = all_relevant_world(n=20)
        cfg = CrawlConfig(seeds=world.seed_urls, budget=15, policy="tree_random",
                          rng_seed=9)
        result = crawl(cfg, SimFetcher(world), oracle_model, kws)
        rewards = [r for _, r, _ in result.fetched]
        assert result.harvest_rate == pytest.approx(float(np.mean(rewards)), abs=1e-15)
        write_run(result, tmp_path)
        replayed = load_log(tmp_path / "result.jsonl")
        assert result.harvest_rate == pytest.approx(
            float(np.mean([r["reward"] for r in replayed])), abs=1e-15)


class TestPolicyEquivalences:
    def test_tres_equals_synchronous_on_forced_chain(self, oracle_model, kws,
                                                     chain_world):
        agent = AgentConfig(eps_start=0.0, eps_end=0.0)
        picks = {}
        for policy in ("tres", "synchronous_tres"):
            cfg = CrawlConfig(seeds=chain_world.seed_urls, budget=11, policy=policy,
                              warmup_steps=0, rng_seed=4, agent=agent)
            result = crawl(cfg, SimFetcher(chain_world), oracle_model, kws)
            picks[policy] = [u for u, _, _ in result.fetched]
        assert picks["tres"] == picks["synchronous_tres"]

    def test_synchronous_evaluations_equal_frontier(self, oracle_model, kws):
        world = all_relevant_world(n=30)
        cfg = CrawlConfig(seeds=world.seed_urls, budget=20, policy="synchronous_tres",
                          rng_seed=6)
        result = crawl(cfg, SimFetcher(world), oracle_model, kws)
        for step in result.steps:
            assert step.q_evals == step.frontier_size

    def test_tres_evaluations_bounded_by_leaves(self, oracle_model, kws):
        world = all_relevant_world(n=40)
        cfg = CrawlConfig(seeds=world.seed_urls, budget=25, policy="tres",
                          warmup_steps=0, rng_seed=8,
                          agent=AgentConfig(eps_start=0.0, eps_end=0.0))
        result = crawl(cfg, SimFetcher(world), oracle_model, kws)
        for step in result.steps:
            assert step.q_evals <= step.leaf_count


class TestDeterminism:
    def test_identical_runs(self, oracle_model, kws):
        world = all_relevant_world(n=25)
        cfg = CrawlConfig(seeds=world.seed_urls, budget=15, policy="tres", rng_seed=12)
        a = crawl(cfg, SimFetcher(world), oracle_model, kws)
        b = crawl(cfg, SimFetcher(world), oracle_model, kws)
        assert a.fetched == b.fetched
        assert a.log_records == b.log_records
        assert a.steps == b.steps

    def test_seed_changes_selection(self, oracle_model, kws):
        world = all_relevant_world(n=25)
        runs = []
        for s in (1, 2):
            cfg = CrawlConfig(seeds=world.seed_urls, budget=15, policy="tree_random",
                              rng_seed=s)
            runs.append(crawl(cfg, SimFetcher(world), oracle_model, kws))
        assert runs[0].fetched != runs[1].fetched


class TestHubFeatureToggle:
    def test_vector_length_in_logs(self, oracle_model, kws, chain_world):
        for hub, dim in ((True, 8), (False, 6)):
            cfg = CrawlConfig(seeds=chain_world.seed_urls, budget=3, policy="tres",
                              hub_features=hub, rng_seed=1)
            result = crawl(cfg, SimFetcher(chain_world), oracle_model, kws)
            for record in result.log_records:
                assert len(record["features"]) == dim


class TestOutlinkBlocks:
    """A crawl scores each (url, anchor) link once; its blocks must still equal
    a from-scratch build_state_actions bit for bit."""

    @pytest.mark.parametrize("policy", ["tres", "random"])
    @pytest.mark.parametrize("memo_max", [None, 40], ids=["memo", "full-memo"])
    def test_blocks_equal_scratch_build(self, acceptance_world, monkeypatch, policy,
                                        memo_max):
        world, keywords, model = acceptance_world
        if memo_max is not None:
            monkeypatch.setattr(graph, "LINK_ACTIONS_MAX", memo_max)
        outlink_entries = crawler._outlink_entries
        seen, memo_sizes = set(), []

        def checked(g, source_url, page, links, hub):
            block = outlink_entries(g, source_url, page, links, hub)
            fresh = [OutlinkCandidate(url=url, anchor=anchor)
                     for url, anchor in page.outlinks if url not in g]
            scratch = build_state_actions(g, source_url, fresh, model, keywords, hub)
            assert block.urls == [c.url for c in fresh] and block.parent == source_url
            assert block.x.shape == scratch.shape
            assert block.x.tobytes() == scratch.tobytes()
            seen.update((c.url, c.anchor) for c in fresh)
            memo_sizes.append(len(links._memo))
            return block

        monkeypatch.setattr(crawler, "_outlink_entries", checked)
        config = CrawlConfig(seeds=world.seed_urls, budget=300, policy=policy)
        crawl(config, SimFetcher(world), model, keywords)
        assert len(memo_sizes) == 301  # the seed's page, then every step's
        if memo_max is not None:  # links met after the memo filled were scored anew
            assert memo_sizes[-1] == memo_max < len(seen)
