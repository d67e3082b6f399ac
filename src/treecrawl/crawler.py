"""The crawl loop: value-guided frontier selection with per-domain caps,
plus the uniform-random and tree-random baselines and run metrics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, asdict, fields

import numpy as np

from .fetch import FetchFailure
from .frontier_tree import FrontierEntry, FrontierExhaustedError, TreeFrontier
# crawl() does not call build_state_action; it is imported only because the
# crawl benchmark's tracer patches crawler.build_state_action.
from .graph import (STATE_ACTION_DIM, STATE_ACTION_DIM_NO_HUB, CrawlGraph,
                    OutlinkCandidate, build_state_action, build_state_actions,
                    seed_state_action)
from .qlearn import (AgentConfig, QNetwork, ReplayBuffer, ReplayRecord,
                     seed_replay, sync_target, train_step)
from .reward import PageText, reward as reward_of
from .urls import domain_of, normalize_url

POLICIES = ("tres", "tree_random", "random", "synchronous_tres")


class ConfigError(ValueError):
    pass


@dataclass
class CrawlConfig:
    seeds: list
    budget: int
    policy: str = "tres"
    mode: str = "sim"
    max_domain_visits: int | None = None
    hub_features: bool = True
    warmup_steps: int = 50
    rng_seed: int = 0
    max_text_len: int = 500
    agent: AgentConfig = field(default_factory=AgentConfig)

    def validate(self):
        # type(...) is int also refuses bools, which Python counts as ints.
        if not (isinstance(self.seeds, list) and all(isinstance(s, str) for s in self.seeds)):
            raise ConfigError("seeds must be a list of URL strings")
        if not self.seeds:
            raise ConfigError("at least one seed URL is required")
        for name in ("budget", "warmup_steps", "rng_seed", "max_text_len"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer")
        if not isinstance(self.hub_features, bool):
            raise ConfigError("hub_features must be true or false")
        for name, low in (("budget", 1), ("max_text_len", 1), ("warmup_steps", 0),
                          ("rng_seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; choose from {POLICIES}")
        if self.mode not in ("sim", "live"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        cap = self.max_domain_visits
        if cap is not None and (type(cap) is not int or cap < 1):
            raise ConfigError("max_domain_visits must be an integer >= 1 or unlimited (None)")

    def to_dict(self):
        """Plain-data form, with the agent settings nested under "agent"."""
        return asdict(self)

    @classmethod
    def from_dict(cls, record):
        """Inverse of to_dict; raises ConfigError naming every unknown key."""
        record = dict(record)
        agent = record.pop("agent", {})
        if not isinstance(agent, dict):
            raise ConfigError("agent must be an object of AgentConfig fields")
        unknown = sorted(set(record) - {f.name for f in fields(cls)}) + sorted(
            "agent." + k for k in set(agent) - {f.name for f in fields(AgentConfig)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**record, agent=AgentConfig(**agent))


@dataclass
class StepStats:
    timestep: int
    frontier_size: int
    leaf_count: int
    q_evals: int
    split_occurred: int


@dataclass
class CrawlResult:
    fetched: list          # (url, reward, timestep)
    status: str            # completed | exhausted
    steps: list            # StepStats per executed timestep
    log_records: list      # JSONL-ready dicts, one per fetch
    losses: list           # (step, loss, epsilon)
    harvest_rate: float = 0.0
    relevant_domains: int = 0
    unique_domains: int = 0
    tree_snapshot: dict | None = None


def enforce_max_domain(graph: CrawlGraph, url, max_visits) -> bool:
    """True while the URL's domain is still below its fetch cap."""
    if max_visits is None:
        return True
    stats = graph.domain_stats.get(domain_of(url))
    fetched = stats[0] if stats else 0
    return fetched < max_visits


def metrics(result: CrawlResult):
    """(harvest rate, relevant domain count, unique domain count) of a run.

    Harvest rate equals the mean binary reward; a domain counts as relevant
    once any of its fetched pages earned reward 1.
    """
    if not result.fetched:
        warnings.warn("empty crawl result; metrics are all zero")
        return 0.0, 0, 0
    rewards = [r for _, r, _ in result.fetched]
    hr = float(np.mean(rewards))
    domain_hits = {}
    for url, r, _ in result.fetched:
        d = domain_of(url)
        domain_hits[d] = domain_hits.get(d, 0) + r
    unique = len(domain_hits)
    relevant = sum(1 for hits in domain_hits.values() if hits > 0)
    return hr, relevant, unique


class PageEntries(list):
    """A fetched page's new frontier entries; `x` is the (k, d) feature block
    whose rows the entries hold, in the same order."""

    def __init__(self, entries, x):
        super().__init__(entries)
        self.x = x


def _outlink_entries(graph, source_url, page, model, keywords, hub):
    candidates = [OutlinkCandidate(url=target, anchor=anchor)
                  for target, anchor in page.outlinks if target not in graph]
    x = build_state_actions(graph, source_url, candidates, model, keywords, hub)
    return PageEntries([FrontierEntry(x=row, url=c.url, parent=source_url)
                        for c, row in zip(candidates, x)], x)


def crawl(config: CrawlConfig, fetcher, model, keywords) -> CrawlResult:
    """Run the full selection loop for config.budget fetches.

    The replay buffer starts from the seed experience (zero state features,
    unit rewards); each timestep trains one minibatch, picks a frontier entry
    under the domain cap, fetches it, scores the page for its reward, and
    feeds the new experience and outlinks back into the frontier structure.
    Frontier exhaustion ends the run early with status "exhausted".
    """
    config.validate()
    agent = config.agent
    # Independent streams so selection noise never perturbs training and
    # vice versa; policies fed identical experiences then train identically.
    rng_select = np.random.default_rng([config.rng_seed, 0])
    rng_train = np.random.default_rng([config.rng_seed, 1])
    rng_init = np.random.default_rng([config.rng_seed, 2])
    hub = config.hub_features
    dim = STATE_ACTION_DIM if hub else STATE_ACTION_DIM_NO_HUB
    uses_q = config.policy in ("tres", "synchronous_tres")

    online = target = None
    replay = None
    if uses_q:
        online = QNetwork(dim, hidden=agent.hidden, activation=agent.activation,
                          rng=rng_init)
        target = online.clone()
        replay = ReplayBuffer(agent.replay_capacity)

    graph = CrawlGraph()
    # The random baseline is the tree that is never given an experience: it
    # keeps one leaf, so every draw is uniform over the whole frontier.
    learns = config.policy != "random"
    frontier = TreeFrontier()
    cap = config.max_domain_visits

    def dead(url):
        # Fetch counts only grow and the cap is fixed for a crawl, so a dead
        # entry stays dead and the frontier may drop it for good.
        return url in graph or (cap is not None and not enforce_max_domain(graph, url, cap))

    # Seed bootstrap: seeds are treated as relevant and their outlinks form
    # the initial frontier, which enters the tree at step 0.
    seed_vectors = []
    pending_entries = []
    for raw in config.seeds:
        url = normalize_url(raw)
        if url in graph:
            continue
        try:
            page = fetcher.fetch(url)
        except FetchFailure as exc:
            warnings.warn(f"seed fetch failed ({exc}); seed kept without outlinks")
            page = None
        graph.register_fetch(None, url, 1)
        candidate = OutlinkCandidate(url=url, anchor="",
                                     title=page.title if page else "")
        seed_vectors.append(seed_state_action(candidate, model, keywords, hub_features=hub))
        if page is not None:
            pending_entries.extend(
                _outlink_entries(graph, url, page, model, keywords, hub))

    if uses_q:
        seed_replay(replay, seed_vectors)
    if learns:
        for x in seed_vectors:
            frontier.insert_experience(x, 1.0)

    fetched = []
    log_records = []
    losses = []
    steps = []
    status = "completed"
    pending_experience = None

    for t in range(config.budget):
        epsilon = agent.epsilon(t, config.budget)
        if uses_q:
            batch = replay.sample(rng_train, agent.batch_size)
            loss = train_step(online, target, batch, agent)
            losses.append((t, loss, epsilon))
            if (t + 1) % agent.target_sync_every == 0:
                sync_target(online, target)

        if config.policy == "synchronous_tres":
            mode = "synchronous"
        elif (config.policy == "tres" and t >= config.warmup_steps
              and rng_select.random() >= epsilon):
            mode = "greedy"
        else:
            mode = "explore"
        try:
            entry, info = frontier.update(pending_experience, pending_entries, mode,
                                          online, rng_select, dead)
        except FrontierExhaustedError:
            status = "exhausted"
            break

        url = entry.url
        try:
            page = fetcher.fetch(url)
        except FetchFailure:
            page = None  # failed fetches consume the timestep with reward 0
        if page is not None:
            page_text = PageText.from_page(url, page.title, page.body_text,
                                           max_len=config.max_text_len)
            r = reward_of(model, page_text, keywords)
        else:
            r = 0
        graph.register_fetch(entry.parent, url, r)

        new_entries = []
        if page is not None:
            new_entries = _outlink_entries(graph, url, page, model, keywords, hub)

        if uses_q:
            if new_entries:
                nxt = new_entries.x
                if nxt.shape[0] > agent.next_action_cap:
                    keep = np.sort(rng_train.choice(
                        nxt.shape[0], size=agent.next_action_cap, replace=False))
                    nxt = nxt[keep]
            else:
                nxt = np.empty((0, dim))
            replay.add(ReplayRecord(x=entry.x, reward=float(r), next_vectors=nxt))

        fetched.append((url, r, t))
        log_records.append({
            "timestep": t,
            "url": url,
            "parent": entry.parent,
            "reward": r,
            "domain": domain_of(url),
            "features": [float(v) for v in entry.x],
            "q_value_estimate": info.q_value,
        })
        steps.append(StepStats(timestep=t, frontier_size=info.frontier_size,
                               leaf_count=info.leaf_count, q_evals=info.q_evaluations,
                               split_occurred=int(info.split_occurred)))
        if learns:
            pending_experience = (entry.x, float(r))
        pending_entries = new_entries

    result = CrawlResult(fetched=fetched, status=status, steps=steps,
                         log_records=log_records, losses=losses,
                         tree_snapshot=frontier.snapshot() if learns else None)
    result.harvest_rate, result.relevant_domains, result.unique_domains = metrics(result)
    return result

