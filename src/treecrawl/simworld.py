"""Deterministic synthetic web graph with topical locality.

Stands in for the live web so crawling policies can be compared offline. A
fraction of pages is relevant to the topic; relevant pages preferentially
link to relevant pages, keywords are injected into relevant titles, bodies,
and URLs, and a few irrelevant hub pages point at many relevant ones.
Everything is reachable from the designated seed pages and a fixed
(params, seed) pair regenerates the world byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class SimWorldParams:
    pages: int = 10_000
    relevance: float = 0.05
    locality: float = 0.8
    mean_out_degree: float = 6.0
    seed_out_degree: float = 50.0  # seeds act as broad portal pages
    communities: int = 80  # relevant pages cluster into topical islands
    domains: int = 400
    topic_domain_fraction: float = 0.05
    hub_rate: float = 0.12
    title_kw_rate: float = 0.5
    title_noise_rate: float = 0.12
    body_kw_mean: float = 6.0
    noise_kw_mean: float = 0.3
    url_kw_rate: float = 0.3
    background_link_rate: float = 0.006
    n_keywords: int = 12
    body_len: int = 80
    title_len: int = 6
    seeds: int = 1


@dataclass
class SimPage:
    url: str
    domain: str
    relevant: bool
    title: str
    body: str
    outlinks: list  # (url, anchor)


@dataclass
class SimWorld:
    params: SimWorldParams
    seed: int
    keywords: list
    seed_urls: list
    pages: dict  # url -> SimPage
    order: list = field(default_factory=list)  # urls in generation order

    @property
    def relevant_urls(self):
        return [u for u in self.order if self.pages[u].relevant]


def _validate(params: SimWorldParams):
    if params.pages < 10:
        raise GenerationError("need at least 10 pages")
    if not 0.0 < params.relevance < 1.0:
        raise GenerationError("relevance fraction must be in (0, 1)")
    if not 0.0 <= params.locality <= 1.0:
        raise GenerationError("locality must be in [0, 1]")
    if params.seeds < 1:
        raise GenerationError("need at least one seed")
    if params.domains < 2:
        raise GenerationError("need at least two domains")
    n_relevant = int(round(params.pages * params.relevance))
    if params.seeds > n_relevant:
        raise GenerationError(
            f"{params.seeds} seeds cannot all be relevant with only {n_relevant} relevant pages")
    if params.seeds >= params.pages:
        raise GenerationError("seed count must be smaller than the page count")


def generate_sim_world(params: SimWorldParams, seed: int) -> SimWorld:
    _validate(params)
    rng = np.random.default_rng(seed)
    n = params.pages
    n_relevant = int(round(n * params.relevance))

    keywords = [f"topic{i:02d}" for i in range(params.n_keywords)]
    background = [f"filler{i:03d}" for i in range(400)]

    # Seeds occupy the first indices and are relevant by construction.
    relevant = np.zeros(n, dtype=bool)
    relevant[:params.seeds] = True
    remaining = rng.choice(np.arange(params.seeds, n), size=n_relevant - params.seeds,
                           replace=False)
    relevant[remaining] = True
    rel_idx = np.flatnonzero(relevant)
    irr_idx = np.flatnonzero(~relevant)

    # Relevant pages form topical islands; locality keeps their links inside
    # the island, so reaching a new island goes through the background graph.
    # Communities need a handful of members each to carry internal links.
    n_communities = max(1, min(int(params.communities), n_relevant // 4))
    community = {}
    members = [[] for _ in range(n_communities)]
    for k, i in enumerate(rel_idx):
        community[int(i)] = k % n_communities
        members[k % n_communities].append(int(i))

    n_topic_domains = max(1, int(round(params.domains * params.topic_domain_fraction)))
    topic_domains = [f"t{i:03d}.sim" for i in range(n_topic_domains)]
    bg_domains = [f"b{i:03d}.sim" for i in range(params.domains - n_topic_domains)]
    if not bg_domains:
        bg_domains = topic_domains

    domains = np.empty(n, dtype=object)
    for i in range(n):
        if relevant[i]:
            domains[i] = topic_domains[community[i] % n_topic_domains]
        elif rng.random() < 0.15:
            domains[i] = topic_domains[int(rng.integers(0, len(topic_domains)))]
        else:
            domains[i] = bg_domains[int(rng.integers(0, len(bg_domains)))]

    def pick_background(k):
        return [background[int(j)] for j in rng.integers(0, len(background), size=k)]

    def pick_keyword():
        return keywords[int(rng.integers(0, len(keywords)))]

    urls = []
    titles = []
    bodies = []
    for i in range(n):
        if relevant[i] and rng.random() < params.url_kw_rate:
            path = f"{pick_keyword()}-p{i:05d}"
        else:
            path = f"p{i:05d}"
        urls.append(f"http://{domains[i]}/{path}")

        title_tokens = pick_background(params.title_len)
        if relevant[i]:
            if rng.random() < params.title_kw_rate:
                title_tokens[0] = pick_keyword()
        elif rng.random() < params.title_noise_rate:
            title_tokens[0] = pick_keyword()  # noise keyword in an irrelevant title
        titles.append(" ".join(title_tokens))

        body_tokens = pick_background(params.body_len)
        kw_mean = params.body_kw_mean if relevant[i] else params.noise_kw_mean
        n_kw = int(rng.poisson(kw_mean))
        for _ in range(min(n_kw, params.body_len)):
            body_tokens[int(rng.integers(0, params.body_len))] = pick_keyword()
        bodies.append(" ".join(body_tokens))

    # One in-edge from an earlier page guarantees reachability from the seeds.
    # Topical locality shapes these too: a relevant page is discovered mostly
    # from another relevant page.
    adjacency = [[] for _ in range(n)]
    for j in range(params.seeds, n):
        parent = None
        if relevant[j] and rng.random() < params.locality:
            earlier_same = [i for i in members[community[j]] if i < j]
            if earlier_same:
                parent = earlier_same[int(rng.integers(0, len(earlier_same)))]
        if parent is None:
            parent = int(rng.integers(0, j))
        adjacency[parent].append(j)

    extra_mean = max(0.0, params.mean_out_degree - 1.0)
    for i in range(n):
        if i < params.seeds:
            # portal seeds: many outlinks, no topical preference
            deg = int(rng.poisson(params.seed_out_degree))
            for _ in range(deg):
                target = int(rng.integers(0, n))
                if target != i:
                    adjacency[i].append(target)
            continue
        deg = int(rng.poisson(extra_mean))
        for _ in range(deg):
            if relevant[i]:
                if rng.random() < params.locality:
                    own = [m for m in members[community[i]] if m != i]
                    if own:
                        target = own[int(rng.integers(0, len(own)))]
                    else:
                        target = int(rel_idx[int(rng.integers(0, len(rel_idx)))])
                else:
                    target = int(rng.integers(0, n))
            else:
                if rng.random() < params.background_link_rate:
                    target = int(rel_idx[int(rng.integers(0, len(rel_idx)))])
                else:
                    target = int(irr_idx[int(rng.integers(0, len(irr_idx)))])
            if target != i:
                adjacency[i].append(target)

    # Hub pages: irrelevant pages pointing at many relevant ones.
    n_hubs = max(1, int(round(params.hub_rate * n_relevant)))
    hub_pool = irr_idx[rng.permutation(len(irr_idx))][:n_hubs]
    for i in hub_pool:
        extra = 5 + int(rng.poisson(3.0))
        for _ in range(extra):
            adjacency[int(i)].append(int(rel_idx[int(rng.integers(0, len(rel_idx)))]))

    def anchor_for(j):
        return " ".join(titles[j].split()[:4])

    pages = {}
    order = []
    for i in range(n):
        seen = set()
        outlinks = []
        for j in adjacency[i]:
            if j in seen or j == i:
                continue
            seen.add(j)
            outlinks.append((urls[j], anchor_for(j)))
        page = SimPage(url=urls[i], domain=str(domains[i]), relevant=bool(relevant[i]),
                       title=titles[i], body=bodies[i], outlinks=outlinks)
        pages[urls[i]] = page
        order.append(urls[i])

    return SimWorld(params=params, seed=seed, keywords=keywords,
                    seed_urls=urls[:params.seeds], pages=pages, order=order)


def training_corpus(world: SimWorld, n_relevant, n_irrelevant, seed=0):
    """Sample labeled page records {url, title, text, label} from the world."""
    rng = np.random.default_rng(seed)
    rel = [u for u in world.order if world.pages[u].relevant]
    irr = [u for u in world.order if not world.pages[u].relevant]
    if n_relevant > len(rel) or n_irrelevant > len(irr):
        raise GenerationError("corpus request exceeds the world's page counts")
    chosen_rel = [rel[int(i)] for i in rng.choice(len(rel), size=n_relevant, replace=False)]
    chosen_irr = [irr[int(i)] for i in rng.choice(len(irr), size=n_irrelevant, replace=False)]
    records = []
    for url in chosen_rel + chosen_irr:
        page = world.pages[url]
        records.append({"url": page.url, "title": page.title, "text": page.body,
                        "label": 1 if page.relevant else 0})
    return records


def save_world(world: SimWorld, path):
    with open(path, "w", encoding="utf-8") as fh:
        header = {"kind": "simworld", "seed": world.seed, "params": asdict(world.params),
                  "seed_urls": world.seed_urls, "keywords": world.keywords}
        fh.write(json.dumps(header) + "\n")
        for url in world.order:
            page = world.pages[url]
            fh.write(json.dumps({"url": page.url, "domain": page.domain,
                                 "relevant": page.relevant, "title": page.title,
                                 "body": page.body,
                                 "outlinks": [[u, a] for u, a in page.outlinks]}) + "\n")


def load_world(path) -> SimWorld:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "simworld":
            raise GenerationError(f"{path} is not a serialized world")
        params = SimWorldParams(**header["params"])
        pages = {}
        order = []
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            page = SimPage(url=rec["url"], domain=rec["domain"], relevant=rec["relevant"],
                           title=rec["title"], body=rec["body"],
                           outlinks=[(u, a) for u, a in rec["outlinks"]])
            pages[page.url] = page
            order.append(page.url)
    return SimWorld(params=params, seed=header["seed"], keywords=header["keywords"],
                    seed_urls=header["seed_urls"], pages=pages, order=order)


def world_digest(world: SimWorld) -> str:
    """Stable content hash used by determinism checks."""
    h = hashlib.sha256()
    header = {"seed": world.seed, "params": asdict(world.params),
              "seed_urls": world.seed_urls, "keywords": world.keywords}
    h.update(json.dumps(header, sort_keys=True).encode())
    for url in world.order:
        page = world.pages[url]
        h.update(json.dumps([page.url, page.domain, page.relevant, page.title,
                             page.body, page.outlinks]).encode())
    return h.hexdigest()
