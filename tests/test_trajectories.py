"""Pinned crawl trajectories: a speed-up must not silently change what a crawl
fetches. Each digest is the sha256 of a short crawl's result.jsonl on the
acceptance world (SimWorldParams() seed 0, rng_seed 0)."""

import hashlib

import pytest

from treecrawl import CrawlConfig, SimFetcher, crawl
from treecrawl.report import write_run

BUDGET = 600
PINNED = {
    ("tres", None, True): "d24e65ae11dddd9b270de51aa89d911454f3da3ba87f64a6ea52cd52f3fc1562",
    ("tres", 10, True): "994385e81d45b35c40983f4252bbd5b6768e183f16bec41e60a661dd5d3771f3",
    ("random", None, True): "64f25d9a8443cb1f3508279e1d8469dd145795c02135c5ef56bdbf7b3c9d5d81",
    ("tree_random", 10, True): "b3f11a1d6f85969ff0af33226a92ee33ad6d2ad0c25bc4899adb77974fddce17",
    ("random", 10, True): "4ef298ce405488f0c86302f9bf8e0519d6e9c1e3009a1242b1b7f6c21287d4f8",
    ("synchronous_tres", None, True): "0bbf0a733379878289f5795d56cceae925dc09a3f5c225681c711d73cfa29047",
    ("synchronous_tres", 2, True): "d01c78c35737fde5b5e6f27e1c14f85f1d4bb9c4cf6267bce1945a17b88cdea0",
    ("tree_random", None, True): "b65606593525cfbe8801cbb7af66f0cc1177b70523fa9a81d5e546054bb63b72",
    ("tres", None, False): "a6e2e3175afa467f21bba6b40d6a903722919634cff3d5a2163f198f6b3ea18a",
}


@pytest.mark.parametrize("policy, max_domain, hub_features", list(PINNED),
                         ids=[f"{p}-{m}" + ("" if hub else "-no_hub") for p, m, hub in PINNED])
def test_trajectory_is_pinned(acceptance_world, tmp_path, policy, max_domain, hub_features):
    world, keywords, model = acceptance_world
    config = CrawlConfig(seeds=world.seed_urls, budget=BUDGET, policy=policy,
                         max_domain_visits=max_domain, hub_features=hub_features)
    paths = write_run(crawl(config, SimFetcher(world), model, keywords), tmp_path)
    with open(paths["log"], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == PINNED[policy, max_domain, hub_features], (
        f"the {policy} crawl (max_domain_visits={max_domain}, hub_features={hub_features}) "
        "fetched a different trajectory. If the change is deliberate, update PINNED here and say so in "
        "CHANGES.md; a speed-up must leave it unchanged.")
