"""Traversed-subgraph state: web paths, per-domain tallies, and the shared
state-action feature vector.

The traversal is a forest rooted at the seeds; each URL is fetched at most
once and keeps the parent that first discovered it, so per-node path
statistics can be maintained incrementally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reward import keyword_count, keyword_in_url
from .text import tokenize
from .urls import domain_of

STATE_ACTION_DIM = 8
STATE_ACTION_DIM_NO_HUB = 6


class ClosureViolationError(ValueError):
    """A URL was registered twice."""


class GraphIntegrityError(ValueError):
    """A non-seed fetch referenced a parent outside the closure."""


@dataclass
class NodeRecord:
    parent: str | None
    reward: int
    depth: int
    dist_to_relevant: float  # hops up to the nearest reward-1 node, self counts as 0
    path_relevant: int
    path_length: int


@dataclass(frozen=True)
class OutlinkCandidate:
    """An unfetched outlink: its URL, the anchor text that referenced it, and
    whatever short title text is known for it (may be empty)."""

    url: str
    anchor: str = ""
    title: str = ""


class CrawlGraph:
    def __init__(self):
        self.nodes = {}
        self.domain_stats = {}  # domain -> [fetched_count, relevant_count]

    def __contains__(self, url):
        return url in self.nodes

    def register_fetch(self, parent, url, reward) -> NodeRecord:
        """Add a fetched URL under its discovering parent (None for a seed)."""
        if url in self.nodes:
            raise ClosureViolationError(f"{url} already fetched")
        reward = int(reward)
        if parent is None:
            node = NodeRecord(parent=None, reward=reward, depth=0,
                              dist_to_relevant=0 if reward == 1 else math.inf,
                              path_relevant=reward, path_length=1)
        else:
            if parent not in self.nodes:
                raise GraphIntegrityError(f"parent {parent} not in closure")
            p = self.nodes[parent]
            if reward == 1:
                dist = 0
            elif p.dist_to_relevant is math.inf:
                dist = math.inf
            else:
                dist = p.dist_to_relevant + 1
            node = NodeRecord(parent=parent, reward=reward, depth=p.depth + 1,
                              dist_to_relevant=dist,
                              path_relevant=p.path_relevant + reward,
                              path_length=p.path_length + 1)
        self.nodes[url] = node
        stats = self.domain_stats.setdefault(domain_of(url), [0, 0])
        stats[0] += 1
        stats[1] += reward
        return node

    def state_features(self, parent) -> np.ndarray:
        """(parent reward, inverse distance to the nearest relevant path node,
        path relevance ratio) for the path ending at `parent`."""
        if parent not in self.nodes:
            raise GraphIntegrityError(f"{parent} not in closure")
        node = self.nodes[parent]
        if node.dist_to_relevant is math.inf:
            inv_dist = 0.0
        else:
            # Relevant parent maps to 1; each hop up to the nearest relevant
            # node halves-then-thirds etc. the signal, matching the worked
            # convention that one hop gives 0.5.
            inv_dist = 1.0 / (1.0 + node.dist_to_relevant)
        ratio = node.path_relevant / node.path_length
        return np.array([float(node.reward), inv_dist, ratio], dtype=np.float64)

    def hub_features(self, url):
        """(domain relevance ratio, known-domain indicator) for the URL's domain."""
        stats = self.domain_stats.get(domain_of(url))
        if stats is None or stats[0] == 0:
            return 0.0, 0.5
        return stats[1] / stats[0], 1.0

    def walk_path(self, url):
        """Root-to-node URL sequence; independent of the stored statistics."""
        chain = []
        cur = url
        while cur is not None:
            node = self.nodes[cur]
            chain.append(cur)
            cur = node.parent
        chain.reverse()
        return chain


def action_features(url, anchor, title, model, keywords) -> tuple:
    """(a1, a2, a3) of an outlink. a1 flags a keyword in the URL and a2 one in
    the anchor text. a3 estimates relevance from the outlink's short text, its
    title when known and otherwise the anchor: it is the model's probability
    of a page holding just that text."""
    in_url = keyword_in_url(url, keywords)
    short = tokenize(anchor)
    count = keyword_count(short, keywords)
    a2 = 1.0 if count > 0 else 0.0
    if title:
        short = tokenize(title)
        count = keyword_count(short, keywords)
    return 1.0 if in_url else 0.0, a2, model.relevance(count, len(short), in_url)


def _block(graph, parent, urls, actions, hub_features):
    """(k, d) rows of `parent`'s state, each URL's actions and, with
    hub_features, the hub features of the URL's domain."""
    X = np.empty((len(actions), STATE_ACTION_DIM if hub_features else STATE_ACTION_DIM_NO_HUB))
    X[:, :3] = 0.0 if parent is None else graph.state_features(parent)
    if actions:
        if hub_features:
            hub = graph.hub_features
            X[:, 3:] = [a + hub(url) for url, a in zip(urls, actions)]
        else:
            X[:, 3:] = actions
    return X


def build_state_actions(graph: CrawlGraph, parent, candidates, model, keywords,
                        hub_features=True) -> np.ndarray:
    """(k, d) block of (state, action[, hub]) rows, one per candidate found on
    `parent`'s page; a parent of None gives the empty graph's zero state."""
    actions = [action_features(c.url, c.anchor, c.title, model, keywords) for c in candidates]
    return _block(graph, parent, [c.url for c in candidates], actions, hub_features)


# A crawl keeps the action columns of this many distinct (url, anchor) links;
# a link first met once the memo is full is scored each time it is met.
LINK_ACTIONS_MAX = 1 << 16


class LinkActions:
    """The action columns of each (url, anchor) link, computed once per crawl:
    they depend only on the link, the model and the keywords. Only the state
    and hub columns change from step to step."""

    def __init__(self, model, keywords):
        self.model = model
        self.keywords = keywords
        self._memo = {}

    def block(self, graph, parent, links, hub_features) -> np.ndarray:
        """build_state_actions of the links as candidates with no title."""
        memo = self._memo
        actions = []
        for link in links:
            a = memo.get(link)
            if a is None:
                a = action_features(link[0], link[1], "", self.model, self.keywords)
                if len(memo) < LINK_ACTIONS_MAX:
                    memo[link] = a
            actions.append(a)
        return _block(graph, parent, [url for url, _ in links], actions, hub_features)


def build_state_action(graph: CrawlGraph, parent, candidate: OutlinkCandidate,
                       model, keywords, hub_features=True) -> np.ndarray:
    """Concatenated (state, action[, hub]) vector for one frontier candidate."""
    return build_state_actions(graph, parent, [candidate], model, keywords, hub_features)[0]


def seed_state_action(candidate: OutlinkCandidate, model, keywords,
                      hub_features=True) -> np.ndarray:
    """Bootstrap vector for selecting a seed from the empty graph: zero state
    features, action features for the seed itself, unknown-domain hub features."""
    return build_state_actions(CrawlGraph(), None, [candidate], model, keywords,
                               hub_features)[0]
