"""Pinned crawl trajectories: a speed-up must not silently change what a crawl
fetches. Each digest is the sha256 of a short crawl's result.jsonl on the
acceptance world (SimWorldParams() seed 0, rng_seed 0)."""

import hashlib

import pytest

from treecrawl import CrawlConfig, SimFetcher, crawl
from treecrawl.report import write_run

BUDGET = 600
PINNED = {
    ("tres", None): "d24e65ae11dddd9b270de51aa89d911454f3da3ba87f64a6ea52cd52f3fc1562",
    ("tres", 10): "994385e81d45b35c40983f4252bbd5b6768e183f16bec41e60a661dd5d3771f3",
    ("random", None): "64f25d9a8443cb1f3508279e1d8469dd145795c02135c5ef56bdbf7b3c9d5d81",
    ("tree_random", 10): "b3f11a1d6f85969ff0af33226a92ee33ad6d2ad0c25bc4899adb77974fddce17",
    ("random", 10): "4ef298ce405488f0c86302f9bf8e0519d6e9c1e3009a1242b1b7f6c21287d4f8",
}


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
