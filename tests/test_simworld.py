import hashlib
import json
import sys
from collections import deque

import numpy as np
import pytest

from conftest import make_world
from treecrawl.simworld import (GenerationError, SimPage, SimWorldParams,
                                generate_sim_world, load_world, save_world,
                                training_corpus, world_digest)


# world_digest of the acceptance world (SimWorldParams() seed 0): a change to
# the generator that alters any page, link or anchor changes it.
ACCEPTANCE_WORLD_DIGEST = "55a42d328cd90d43caa1a1c6ecd21f05d5ebcf9b476bacd5eaafa5827b0a73d5"


def assert_links_shared(world):
    """Every link to one page is the same (url, anchor) tuple object."""
    held = {}
    for page in world.pages.values():
        for link in page.outlinks:
            assert type(link) is tuple
            assert held.setdefault(link[0], link) is link
    return held


def reachable_from(world, starts):
    seen = set(starts)
    queue = deque(starts)
    while queue:
        url = queue.popleft()
        for target, _ in world.pages[url].outlinks:
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return seen


class TestGeneration:
    def test_determinism(self):
        params = SimWorldParams(pages=1000, domains=40)
        a = generate_sim_world(params, seed=42)
        b = generate_sim_world(params, seed=42)
        assert world_digest(a) == world_digest(b)
        c = generate_sim_world(params, seed=43)
        assert world_digest(a) != world_digest(c)

    def test_relevance_fraction_exact(self):
        params = SimWorldParams(pages=1000, relevance=0.05, domains=40)
        world = generate_sim_world(params, seed=0)
        assert len(world.relevant_urls) == 50

    def test_reachability_from_seeds(self):
        params = SimWorldParams(pages=500, domains=20, seeds=2)
        world = generate_sim_world(params, seed=5)
        assert len(world.seed_urls) == 2
        assert len(reachable_from(world, world.seed_urls)) == 500

    def test_seeds_are_relevant(self):
        world = generate_sim_world(SimWorldParams(pages=200, domains=10, seeds=3), seed=2)
        for url in world.seed_urls:
            assert world.pages[url].relevant

    def test_locality_zero_edge_census(self):
        # relevant sources target uniformly, so the relevant->relevant edge
        # fraction should sit near the base relevance rate
        fractions = []
        for seed in range(10):
            params = SimWorldParams(pages=1000, relevance=0.05, locality=0.0,
                                    domains=40, hub_rate=0.0)
            world = generate_sim_world(params, seed=seed)
            rel_edges = 0
            rel_rel = 0
            for url in world.relevant_urls:
                for target, _ in world.pages[url].outlinks:
                    rel_edges += 1
                    rel_rel += world.pages[target].relevant
            fractions.append(rel_rel / rel_edges)
        assert abs(float(np.mean(fractions)) - 0.05) < 0.02

    def test_high_locality_edge_census(self):
        # seeds are portal pages with untargeted links, so the census covers
        # the non-seed relevant population
        params = SimWorldParams(pages=1000, relevance=0.05, locality=0.8, domains=40,
                                communities=5)
        world = generate_sim_world(params, seed=1)
        rel_edges = rel_rel = 0
        for url in world.relevant_urls:
            if url in world.seed_urls:
                continue
            for target, _ in world.pages[url].outlinks:
                rel_edges += 1
                rel_rel += world.pages[target].relevant
        assert rel_rel / rel_edges > 0.6

    def test_hub_census(self):
        params = SimWorldParams(pages=1000, relevance=0.05, hub_rate=0.05, domains=40)
        world = generate_sim_world(params, seed=7)
        hubs = 0
        for url in world.order:
            page = world.pages[url]
            if page.relevant:
                continue
            relevant_out = sum(world.pages[t].relevant for t, _ in page.outlinks)
            if relevant_out >= 5:
                hubs += 1
        assert hubs >= 1

    def test_keyword_injection(self):
        world = generate_sim_world(SimWorldParams(pages=400, domains=20), seed=3)
        kw = set(world.keywords)
        rel_with_kw = sum(any(t in kw for t in world.pages[u].body.split())
                          for u in world.relevant_urls)
        assert rel_with_kw / len(world.relevant_urls) > 0.9
        url_with_kw = sum(any(k in u for k in kw) for u in world.relevant_urls)
        assert url_with_kw > 0

    def test_generation_errors(self):
        with pytest.raises(GenerationError):
            generate_sim_world(SimWorldParams(pages=5), seed=0)
        with pytest.raises(GenerationError):
            generate_sim_world(SimWorldParams(pages=100, relevance=0.0), seed=0)
        with pytest.raises(GenerationError):
            generate_sim_world(SimWorldParams(pages=100, relevance=1.5), seed=0)
        with pytest.raises(GenerationError):
            # more seeds than relevant pages cannot all be relevant seeds
            generate_sim_world(SimWorldParams(pages=100, relevance=0.02, seeds=5), seed=0)

    @pytest.mark.parametrize("field, value", [
        ("title_len", 0), ("n_keywords", 0), ("communities", -4), ("communities", 0),
        ("mean_out_degree", -3.0), ("seed_out_degree", -1.0), ("body_kw_mean", -1.0),
        ("noise_kw_mean", float("nan")), ("hub_rate", -2.0), ("body_len", -1),
        ("topic_domain_fraction", 1.5), ("title_kw_rate", -0.1), ("title_noise_rate", 2.0),
        ("url_kw_rate", float("nan")), ("background_link_rate", 1.01)])
    def test_out_of_range_params_named(self, field, value):
        with pytest.raises(GenerationError, match=f"^{field} must be"):
            generate_sim_world(SimWorldParams(pages=100, **{field: value}), seed=0)

    @pytest.mark.parametrize("field, value", [
        ("title_len", 2.5), ("pages", 100.0), ("communities", 2.5), ("seeds", True),
        ("relevance", True), ("locality", "0.5")])
    def test_wrong_param_types_named_at_construction(self, field, value):
        with pytest.raises(GenerationError, match=f"^{field} must be an? "):
            SimWorldParams(**{"pages": 100, field: value})

    @pytest.mark.parametrize("field", ["mean_out_degree", "seed_out_degree", "body_kw_mean",
                                       "noise_kw_mean", "hub_rate"])
    def test_infinite_means_named(self, field):
        with pytest.raises(GenerationError, match=f"^{field} must be finite"):
            SimWorldParams(pages=100, domains=10, **{field: float("inf")})

    def test_range_ends_accepted(self):
        ends = dict(title_len=1, n_keywords=1, communities=1, mean_out_degree=0.0,
                    seed_out_degree=0.0, body_kw_mean=0.0, noise_kw_mean=0.0, hub_rate=0.0,
                    body_len=0, topic_domain_fraction=1.0, title_kw_rate=1.0,
                    title_noise_rate=0.0, url_kw_rate=1.0, background_link_rate=0.0)
        world = generate_sim_world(SimWorldParams(pages=100, domains=10, **ends), seed=0)
        assert len(world.pages) == 100

    @pytest.mark.parametrize("n_relevant, n_irrelevant, field", [(-1, 10, "n_relevant"),
                                                                 (1, -1, "n_irrelevant")])
    def test_negative_corpus_counts_named(self, n_relevant, n_irrelevant, field):
        world = generate_sim_world(SimWorldParams(pages=100, domains=10), seed=0)
        with pytest.raises(GenerationError, match=f"^{field} must be at least 0"):
            training_corpus(world, n_relevant, n_irrelevant)

    def test_page_outlinks_deduplicated(self):
        world = generate_sim_world(SimWorldParams(pages=300, domains=15), seed=11)
        for url in world.order:
            targets = [t for t, _ in world.pages[url].outlinks]
            assert len(targets) == len(set(targets))

    def test_acceptance_world_pinned(self, acceptance_world):
        world, _, _ = acceptance_world
        assert world_digest(world) == ACCEPTANCE_WORLD_DIGEST

    def test_links_to_a_page_share_one_tuple(self):
        world = generate_sim_world(SimWorldParams(pages=500, domains=20), seed=4)
        held = assert_links_shared(world)
        assert sum(len(page.outlinks) for page in world.pages.values()) > len(held)
        assert not hasattr(next(iter(world.pages.values())), "__dict__")  # slotted


class TestSerialization:
    def test_loaded_links_share_one_tuple(self, tmp_path):
        world = generate_sim_world(SimWorldParams(pages=500, domains=20), seed=4)
        path = tmp_path / "world.jsonl"
        save_world(world, path)
        loaded = load_world(path)
        assert len(assert_links_shared(loaded)) == len(assert_links_shared(world))
        assert world_digest(loaded) == world_digest(world)

    def test_round_trip(self, tmp_path):
        params = SimWorldParams(pages=200, domains=10)
        world = generate_sim_world(params, seed=13)
        path = tmp_path / "world.jsonl"
        save_world(world, path)
        loaded = load_world(path)
        assert world_digest(loaded) == world_digest(world)
        assert world_digest(world) == hashlib.sha256(path.read_bytes()).hexdigest()
        assert loaded.params == params
        assert loaded.seed_urls == world.seed_urls

    def test_save_is_byte_deterministic(self, tmp_path):
        params = SimWorldParams(pages=150, domains=10)
        p1, p2 = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
        save_world(generate_sim_world(params, seed=21), p1)
        save_world(generate_sim_world(params, seed=21), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_non_world_file(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"kind": "other"}\n')
        with pytest.raises(GenerationError):
            load_world(path)

    def test_unknown_params_named(self, tmp_path):
        path = tmp_path / "world.jsonl"
        save_world(generate_sim_world(SimWorldParams(pages=150, domains=10), seed=21), path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["params"]["intra_domain_rate"] = 0.5
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(GenerationError) as err:
            load_world(path)
        message = str(err.value)
        assert str(path) in message and "intra_domain_rate" in message
        assert "treecrawl genworld" in message

    @pytest.mark.parametrize("edit, line, field", [
        (lambda h, p: h.update(params=[1]), 1, "params"),
        (lambda h, p: h["params"].update(pages="x"), 1, "params.pages"),
        (lambda h, p: h["params"].update(relevance=True), 1, "params.relevance"),
        (lambda h, p: h.update(seed="0"), 1, "seed"),
        (lambda h, p: h.update(seed_urls="http://a/"), 1, "seed_urls"),
        (lambda h, p: h.update(keywords=[1]), 1, "keywords"),
        (lambda h, p: p[1].clear(), 3, "url"),
        (lambda h, p: p[0].update(relevant=1), 2, "relevant"),
        (lambda h, p: p[4].update(outlinks=[["http://a/"]]), 6, "outlinks"),
        (lambda h, p: p[4].pop("body"), 6, "body"),
    ])
    def test_wrong_field_types_named(self, tmp_path, edit, line, field):
        path = tmp_path / "world.jsonl"
        save_world(generate_sim_world(SimWorldParams(pages=150, domains=10), seed=21), path)
        header, *pages = [json.loads(text) for text in path.read_text().splitlines()]
        edit(header, pages)
        path.write_text("".join(json.dumps(rec) + "\n" for rec in [header] + pages))
        with pytest.raises(GenerationError) as err:
            load_world(path)
        assert str(err.value).startswith(f"{path} line {line}: {field} ")

    @pytest.mark.parametrize("key, value", [
        ("params.relevance", 1.5), ("params.communities", 2.5), ("params.title_len", 0),
        ("keywords", ["topic00", "TOPIC01"]), ("keywords", ["machine learning"]),
        ("keywords", [])],
        ids=["relevance", "communities", "title_len", "uppercase", "two-tokens", "none"])
    def test_header_values_checked(self, tmp_path, key, value):
        path = tmp_path / "world.jsonl"
        save_world(generate_sim_world(SimWorldParams(pages=150, domains=10), seed=21), path)
        header, *pages = path.read_text().splitlines(keepends=True)
        header = json.loads(header)
        if key.startswith("params."):
            header["params"][key.split(".")[1]] = value
        else:
            header[key] = value
        path.write_text(json.dumps(header) + "\n" + "".join(pages))
        with pytest.raises(GenerationError) as err:
            load_world(path)
        assert str(err.value).startswith(f"{path} line 1: {key} ")

    @pytest.mark.parametrize("url, message", [
        ("HTTP://t000.sim/p00003/", "is not normalized"),
        ("http://T000.sim/p00003", "is not normalized"),
        ("not a url", "url missing scheme or host"),
        (None, "repeats an earlier page's URL")], ids=["case", "host", "malformed", "repeat"])
    def test_page_urls_checked(self, tmp_path, url, message):
        path = tmp_path / "world.jsonl"
        save_world(generate_sim_world(SimWorldParams(pages=150, domains=10), seed=21), path)
        header, *pages = [json.loads(text) for text in path.read_text().splitlines()]
        pages[3]["url"] = url or pages[1]["url"]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in [header] + pages))
        with pytest.raises(GenerationError) as err:
            load_world(path)
        assert str(err.value).startswith(f"{path} line 5: url ")
        assert message in str(err.value)

    @pytest.mark.parametrize("line", [1, 4])
    def test_line_not_json_named(self, tmp_path, line):
        path = tmp_path / "world.jsonl"
        save_world(generate_sim_world(SimWorldParams(pages=150, domains=10), seed=21), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = "{not json\n"
        path.write_text("".join(lines))
        with pytest.raises(GenerationError, match=f"line {line} is not JSON"):
            load_world(path)

    def test_page_line_not_an_object_named(self, tmp_path):
        path = tmp_path / "world.jsonl"
        save_world(generate_sim_world(SimWorldParams(pages=150, domains=10), seed=21), path)
        path.write_text(path.read_text() + "[1]\n")
        with pytest.raises(GenerationError, match="line 152: a page must be an object"):
            load_world(path)

    @pytest.mark.parametrize("header", [{"kind": "simworld"},
                                        {"kind": "simworld", "params": {}, "seed": 0}])
    def test_missing_header_keys_named(self, tmp_path, header):
        path = tmp_path / "world.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(GenerationError) as err:
            load_world(path)
        missing = [k for k in ("params", "seed", "seed_urls", "keywords") if k not in header]
        assert str(err.value).startswith(f"{path} header lacks {', '.join(missing)};")


class TestTrainingCorpus:
    def test_sizes_and_labels(self):
        world = generate_sim_world(SimWorldParams(pages=400, domains=20), seed=17)
        records = training_corpus(world, 10, 90, seed=1)
        assert len(records) == 100
        assert sum(r["label"] for r in records) == 10
        urls = [r["url"] for r in records]
        assert len(urls) == len(set(urls))
        for r in records:
            assert r["label"] == int(world.pages[r["url"]].relevant)

    def test_oversized_request_rejected(self):
        world = generate_sim_world(SimWorldParams(pages=100, domains=10), seed=1)
        with pytest.raises(GenerationError):
            training_corpus(world, 1000, 10, seed=0)


# Bodies that a split on single spaces must give back exactly; the last one
# has 70,000 distinct words, more ids than 16 bits hold.
BODIES = ["", " ", "a  b", "  leading", "trailing  ", " both ends ",
          "tab\tand\nnewline\r\n", "naïve café – 日本語 emoji \U0001f600",
          " ".join(f"distinct{i:05d}" for i in range(70_000))]


class TestBodies:
    def test_stored_bodies_fit_3mb(self, acceptance_world):
        world, _, _ = acceptance_world
        assert sum(sys.getsizeof(page.words) for page in world.pages.values()) < 3_000_000

    @pytest.mark.parametrize("body", BODIES, ids=range(len(BODIES)))
    def test_body_round_trip(self, body):
        page = SimPage(url="http://x.sim/a", domain="x.sim", relevant=False, title="t",
                       body=body, outlinks=[])
        assert page.body == body

    def test_ids_past_16_bits_widen_the_array(self):
        page = SimPage(url="http://x.sim/a", domain="x.sim", relevant=False, title="t",
                       body=BODIES[-1], outlinks=[])
        assert page.words.typecode == "I" and len(page.words) == 70_000

    def test_saved_world_of_odd_bodies_loads_to_same_digest(self, tmp_path):
        world = make_world([(f"http://x.sim/p{i}", i % 2 == 0, f"title {i}", body, [])
                            for i, body in enumerate(BODIES)])
        path = tmp_path / "world.jsonl"
        save_world(world, path)
        loaded = load_world(path)
        assert [page.body for page in loaded.pages.values()] == BODIES
        assert world_digest(loaded) == world_digest(world)
