"""Span tracer for the crawl benchmark.

Layers are traced from outside the package: `install` replaces module and
class attributes of `treecrawl` with wrappers that open a span around each
call, or only count the call for hot helpers, and `Patches.restore` puts every
original back. Nothing under `src/` knows about tracing, so an untraced run
executes the unmodified code.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Spans whose innermost position marks a frontier lookup: a closure check made
# directly inside one of them is an entry examined by the selection step.
FRONTIER_SPANS = frozenset({"frontier_tree.select",
                            "frontier_tree.sample_representatives"})


class Tracer:
    """Nested spans aggregated by name.

    A span's self time is its duration minus the durations of the spans
    opened directly inside it, so the self times of all spans under a root
    add up to the root's duration.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [name, start, time covered by child spans]
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, covered = self.stack.pop()
        duration = self.clock() - start
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        self.counts[name + ".calls"] += 1
        if self.stack:
            self.stack[-1][2] += duration

    def innermost(self):
        return self.stack[-1][0] if self.stack else None

    def in_span(self, name):
        return any(frame[0] == name for frame in self.stack)


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        # vars() keeps the raw descriptor (classmethod, property) for restore.
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _spanned(tracer, name, fn, count=None):
    """Wrap fn in a span; count(args, result) returns (counter, amount) or None."""
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if count is not None:
            key, amount = count(args, result)
            tracer.counts[key] += amount
        return result
    return wrapper


def _counted(tracer, key, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) == 1 else shape[0]


def install(tracer) -> Patches:
    """Patch every traced `treecrawl` layer; the caller must restore the result.

    Names are patched where the calling module looks them up, and modules are
    taken from sys.modules: `treecrawl.reward` as an attribute is the
    `reward` function that the package re-exports.
    """
    crawler = sys.modules["treecrawl.crawler"]
    qlearn = sys.modules["treecrawl.qlearn"]
    ftree = sys.modules["treecrawl.frontier_tree"]
    graph = sys.modules["treecrawl.graph"]
    reward = sys.modules["treecrawl.reward"]
    fetch = sys.modules["treecrawl.fetch"]
    embeddings = sys.modules["treecrawl.embeddings"]
    patches = Patches()

    def span(owner, attr, name, count=None):
        patches.set(owner, attr, _spanned(tracer, name, getattr(owner, attr), count))

    # qlearn
    span(crawler, "train_step", "qlearn.train_step")
    span(qlearn, "batch_targets", "qlearn.batch_targets")
    span(qlearn.QNetwork, "loss_and_gradients", "qlearn.loss_and_gradients")
    span(qlearn.QNetwork, "apply_gradients", "qlearn.apply_gradients")
    span(qlearn.ReplayBuffer, "sample", "qlearn.replay.sample")
    forward = qlearn.QNetwork.forward

    def traced_forward(net, x):
        part = "train" if tracer.in_span("qlearn.train_step") else "select"
        tracer.enter("qlearn.forward." + part)
        try:
            return forward(net, x)
        finally:
            tracer.exit()
            tracer.counts[f"qlearn.forward.{part}_rows"] += _rows(x)
    patches.set(qlearn.QNetwork, "forward", traced_forward)

    # frontier_tree
    span(ftree.TreeFrontier, "update", "frontier_tree.select")
    span(ftree.TreeFrontier, "update_synchronous", "frontier_tree.select")
    span(ftree.FlatFrontier, "select", "frontier_tree.select")
    span(ftree.TreeFrontier, "insert_experience", "frontier_tree.insert_experience")
    span(ftree, "best_split", "frontier_tree.best_split",
         lambda args, _: ("frontier_tree.best_split.rows", _rows(args[0])))
    span(ftree.TreeFrontier, "insert_frontier", "frontier_tree.insert_frontier")
    span(ftree.FlatFrontier, "insert", "frontier_tree.insert_frontier")
    span(ftree.TreeFrontier, "sample_representatives",
         "frontier_tree.sample_representatives")
    patches.set(crawler, "enforce_max_domain",
                _counted(tracer, "frontier_tree.domain_cap_checks",
                         crawler.enforce_max_domain))

    # graph
    span(crawler, "_outlink_entries", "graph.outlink_entries",
         lambda _, entries: ("graph.outlink_entries.entries", len(entries)))
    span(crawler, "build_state_action", "graph.build_state_action")
    span(graph.CrawlGraph, "register_fetch", "graph.register_fetch")
    contains = graph.CrawlGraph.__contains__
    counts = tracer.counts

    def traced_contains(g, url):
        counts["graph.contains.calls"] += 1
        if tracer.innermost() in FRONTIER_SPANS:
            counts["frontier_tree.closure_checks"] += 1
        return contains(g, url)
    patches.set(graph.CrawlGraph, "__contains__", traced_contains)

    # reward
    span(crawler, "reward_of", "reward.score")
    from_page = vars(reward.PageText)["from_page"].__func__
    patches.set(reward.PageText, "from_page",
                classmethod(_spanned(tracer, "reward.page_text", from_page)))

    # urls and embeddings: count-only, these run millions of times
    for module in (crawler, graph, fetch):
        patches.set(module, "domain_of",
                    _counted(tracer, "urls.domain_of.calls", module.domain_of))
    combined = vars(embeddings.KeywordSet)["combined"].fget
    patches.set(embeddings.KeywordSet, "combined",
                property(_counted(tracer, "embeddings.combined.calls", combined)))
    return patches
