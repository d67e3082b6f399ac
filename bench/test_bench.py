"""Self-tests of the crawl benchmark: span arithmetic, patch hygiene, and the
printed metric names against BENCHMARK.json. Run with `python3 -m pytest bench`."""

import json

import numpy as np
import pytest

import run
import tracer as tracing
from treecrawl import (KeywordSet, SimWorldParams, generate_sim_world,
                       training_corpus)
from treecrawl.reward import PageText, train

# Every policy, with a domain cap, on a world small enough for a unit test.
TINY = run.Workload((run.Crawl("tres", 60), run.Crawl("tres", 60, max_domain=3),
                     run.Crawl("synchronous_tres", 30), run.Crawl("tree_random", 60),
                     run.Crawl("random", 60)), may_exhaust=True)


def tiny_set_up():
    world = generate_sim_world(SimWorldParams(pages=400, domains=40, communities=5),
                               seed=1)
    keywords = KeywordSet(frozenset(world.keywords))
    records = training_corpus(world, 10, 60, seed=1)
    pages = [(PageText.from_page(r["url"], r["title"], r["text"]), r["label"])
             for r in records]
    model = train([p for p, label in pages if label == 1],
                  [p for p, label in pages if label == 0], keywords, seed=1)
    return run.Inputs(world, keywords, model), 0.5, 0.25


def test_self_time_excludes_direct_children():
    # outer 0-10 holds a 1-6 (which holds c 2-5) and b 7-8.
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 8.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    t.enter("outer")
    t.enter("a")
    t.enter("c")
    t.exit()
    t.exit()
    t.enter("b")
    t.exit()
    t.exit()
    assert dict(t.total_s) == {"outer": 10.0, "a": 5.0, "c": 3.0, "b": 1.0}
    assert dict(t.self_s) == {"outer": 4.0, "a": 2.0, "c": 3.0, "b": 1.0}
    assert sum(t.self_s.values()) == t.total_s["outer"]
    assert t.counts["a.calls"] == 1 and not t.stack


def test_repeated_spans_accumulate():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 5.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    t.enter("root")
    for _ in range(2):
        t.enter("leaf")
        t.exit()
    t.exit()
    assert t.counts["leaf.calls"] == 2
    assert t.total_s["leaf"] == 2.5
    assert t.self_s["root"] == 2.5


def test_end_to_end_timings_are_per_segment_medians():
    # Two crawls per set; the second set is slow on one step of each crawl.
    sets = [run.SetOutcome(steps=4, rewards=1, relevant_domains=[1, 2],
                           segments=[np.array(times) for times in crawls])
            for crawls in ([[1, 2, 2, 1, 1], [1, 4, 4, 1, 1]],
                           [[1, 9, 2, 1, 1], [1, 4, 9, 1, 1]],
                           [[1, 2, 2, 1, 1], [1, 4, 4, 1, 1]])]
    values = run.end_to_end_metrics(sets, [0.5, 0.25, 0.75])
    assert values["steps_per_s"] == 4 / 18
    assert values["step_ms_p50"] == 2e3 and values["step_ms_p99"] == 4e3
    assert values["setup_s"] == 0.5


def _installed_targets():
    patches = tracing.install(tracing.Tracer())
    targets = list(patches._saved)
    patches.restore()
    return targets


def test_patches_removed_after_traced_run(tmp_path):
    targets = _installed_targets()
    assert len(targets) >= 20
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, (owner, attr)

    inputs, _, _ = tiny_set_up()
    plain, traced = run.traced_pair(TINY, inputs, 0, str(tmp_path))
    assert not plain.problems and not traced.problems
    assert traced.digests == plain.digests
    assert traced.tracer.counts["urls.domain_of.calls"] > 0
    assert traced.tracer.counts["frontier_tree.domain_cap_checks"] > 0
    assert traced.tracer.counts["graph.contains.calls"] > 0
    assert traced.tracer.counts["embeddings.combined.calls"] > 0
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, (owner, attr)


def test_patches_removed_when_crawl_raises(tmp_path):
    targets = _installed_targets()
    inputs, _, _ = tiny_set_up()
    inputs.model = None  # scoring the first page raises
    plain, traced = run.traced_pair(TINY, inputs, 0, str(tmp_path))
    assert traced.problems and traced.failed == traced.attempted > 0
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, (owner, attr)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(monkeypatch, capsys, trace, key):
    monkeypatch.setitem(run.WORKLOADS, "tres", TINY)
    monkeypatch.setattr(run, "set_up", tiny_set_up)
    assert run.main(["--workload", "tres", "--seconds", "0", "--trace", str(trace)]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0 and printed["attempted"] > 0
    assert {name: m["unit"] for name, m in printed["metrics"].items()} == declared
