"""Pinned crawl trajectories: a speed-up must not silently change what a crawl
fetches. Each digest is the sha256 of a short crawl's result.jsonl on the
acceptance world (SimWorldParams() seed 0, rng_seed 0)."""

import hashlib

import pytest

from treecrawl import (CrawlConfig, KeywordSet, SimFetcher, SimWorldParams, crawl,
                       generate_sim_world, training_corpus)
from treecrawl.report import write_run
from treecrawl.reward import PageText, train

BUDGET = 600
PINNED = {
    ("tres", None): "d24e65ae11dddd9b270de51aa89d911454f3da3ba87f64a6ea52cd52f3fc1562",
    ("tres", 10): "d2d9eb6cfbe0ed72791528a754c77821df2359c157211645faa5dce86e8a49e9",
    ("random", None): "64f25d9a8443cb1f3508279e1d8469dd145795c02135c5ef56bdbf7b3c9d5d81",
}


@pytest.fixture(scope="module")
def acceptance_world():
    world = generate_sim_world(SimWorldParams(), seed=0)
    keywords = KeywordSet(frozenset(world.keywords))
    pages = [(PageText.from_page(r["url"], r["title"], r["text"]), r["label"])
             for r in training_corpus(world, 150, 1500, seed=0)]
    model = train([p for p, label in pages if label == 1],
                  [p for p, label in pages if label == 0], keywords, seed=0)
    return world, keywords, model


@pytest.mark.parametrize("policy, max_domain", list(PINNED))
def test_trajectory_is_pinned(acceptance_world, tmp_path, policy, max_domain):
    world, keywords, model = acceptance_world
    config = CrawlConfig(seeds=world.seed_urls, budget=BUDGET, policy=policy,
                         max_domain_visits=max_domain)
    paths = write_run(crawl(config, SimFetcher(world), model, keywords), tmp_path)
    with open(paths["log"], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == PINNED[policy, max_domain], (
        f"the {policy} crawl (max_domain_visits={max_domain}) fetched a different "
        "trajectory. If the change is deliberate, update PINNED here and say so in "
        "CHANGES.md; a speed-up must leave it unchanged.")
