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
import math
from array import array
from dataclasses import asdict, dataclass, fields
from itertools import chain

import numpy as np

from .checks import check, check_fields, json_lines, require
from .text import tokenize
from .urls import MalformedUrlError, normalize_url


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

    def __post_init__(self):
        check_fields(self, GenerationError)
        for name, low in (("pages", 10), ("seeds", 1), ("domains", 2), ("title_len", 1),
                          ("n_keywords", 1), ("communities", 1), ("mean_out_degree", 0),
                          ("seed_out_degree", 0), ("body_kw_mean", 0), ("noise_kw_mean", 0),
                          ("hub_rate", 0), ("body_len", 0)):
            value = getattr(self, name)
            if not value >= low:  # NaN fails too
                raise GenerationError(f"{name} must be at least {low}")
            if value == math.inf:
                raise GenerationError(f"{name} must be finite")
        if not 0.0 < self.relevance < 1.0:
            raise GenerationError("relevance must be in (0, 1)")
        for name in ("locality", "topic_domain_fraction", "title_kw_rate", "title_noise_rate",
                     "url_kw_rate", "background_link_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise GenerationError(f"{name} must be in [0, 1]")


# Every word of every page body, by id, for all worlds alike, and each word's
# tokenize(word), as a tuple, once a page holding the word has been read by
# tokens() (None before). The tables only grow, so an id keeps its word for
# the life of the process.
_WORDS = []
_WORD_TOKENS = []
_WORD_IDS = {}


def _encode(text):
    """The ids of text.split(" "), which " ".join inverts for any string, as
    array('H') while they fit 16 bits and array('I') after."""
    ids = []
    for word in text.split(" "):
        wid = _WORD_IDS.get(word)
        if wid is None:
            wid = _WORD_IDS[word] = len(_WORDS)
            _WORDS.append(word)
            _WORD_TOKENS.append(None)
        ids.append(wid)
    try:
        return array("H", ids)
    except OverflowError:
        return array("I", ids)


@dataclass(slots=True, init=False)
class SimPage:
    """A page of the simulated web. Its body is held as word ids (`words`)
    and read back as the string it was built from."""
    url: str
    domain: str
    relevant: bool
    title: str
    words: array  # the body's word ids in the shared table
    outlinks: list  # (url, anchor)

    def __init__(self, url, domain, relevant, title, body, outlinks):
        self.url, self.domain, self.relevant, self.title, self.words, self.outlinks = (
            url, domain, relevant, title, _encode(body), outlinks)

    @classmethod
    def from_words(cls, url, domain, relevant, title, words, outlinks):
        """A page whose body is the given word ids."""
        page = cls.__new__(cls)
        page.url, page.domain, page.relevant, page.title, page.words, page.outlinks = (
            url, domain, relevant, title, words, outlinks)
        return page

    @property
    def body(self):
        words = _WORDS
        return " ".join([words[i] for i in self.words])

    def tokens(self):
        """tokenize(self.body), read from the word table: a token never spans
        the spaces that join the words."""
        table = _WORD_TOKENS
        try:
            return list(chain.from_iterable(map(table.__getitem__, self.words)))
        except TypeError:  # a word not tokenized yet: its entry is None
            for i in self.words:
                if table[i] is None:
                    table[i] = tuple(tokenize(_WORDS[i]))
            return self.tokens()


@dataclass
class SimWorld:
    params: SimWorldParams
    seed: int
    keywords: list
    seed_urls: list
    pages: dict  # url -> SimPage, in generation order

    @property
    def order(self):
        return list(self.pages)

    @property
    def relevant_urls(self):
        return [u for u, page in self.pages.items() if page.relevant]


def generate_sim_world(params: SimWorldParams, seed: int) -> SimWorld:
    n_relevant = int(round(params.pages * params.relevance))
    if params.seeds > n_relevant:
        raise GenerationError(
            f"{params.seeds} seeds cannot all be relevant with only {n_relevant} relevant pages")
    if params.seeds >= params.pages:
        raise GenerationError("seed count must be smaller than the page count")
    rng = np.random.default_rng(seed)
    n = params.pages

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
    n_communities = max(1, min(params.communities, n_relevant // 4))
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
        return [background[j] for j in rng.integers(0, len(background), size=k).tolist()]

    def pick_keyword():
        return keywords[int(rng.integers(0, len(keywords)))]

    # Bodies are drawn as word ids, with each word looked up once per world.
    vocab = _encode(" ".join(background + keywords))
    background_ids = np.asarray(vocab[:len(background)])
    keyword_ids = np.asarray(vocab[len(background):])

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

        body = background_ids[rng.integers(0, len(background), size=params.body_len)]
        kw_mean = params.body_kw_mean if relevant[i] else params.noise_kw_mean
        n_kw = int(rng.poisson(kw_mean))
        for _ in range(min(n_kw, params.body_len)):
            # the keyword is drawn first: an assignment evaluates its right side first
            body[int(rng.integers(0, params.body_len))] = \
                keyword_ids[int(rng.integers(0, len(keywords)))]
        bodies.append(array(vocab.typecode, body.tobytes()))

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

    # One (url, anchor) tuple per page, shared by every page linking there.
    links = [(urls[j], " ".join(titles[j].split()[:4])) for j in range(n)]
    pages = {}
    for i in range(n):
        seen = set()
        outlinks = []
        for j in adjacency[i]:
            if j in seen or j == i:
                continue
            seen.add(j)
            outlinks.append(links[j])
        page = SimPage.from_words(urls[i], str(domains[i]), bool(relevant[i]),
                                  titles[i], bodies[i], outlinks)
        pages[urls[i]] = page

    return SimWorld(params=params, seed=seed, keywords=keywords,
                    seed_urls=urls[:params.seeds], pages=pages)


def training_corpus(world: SimWorld, n_relevant, n_irrelevant, seed=0):
    """Sample labeled page records {url, title, text, label} from the world."""
    rng = np.random.default_rng(seed)
    rel = world.relevant_urls
    irr = [u for u, page in world.pages.items() if not page.relevant]
    for name, count in (("n_relevant", n_relevant), ("n_irrelevant", n_irrelevant)):
        if count < 0:
            raise GenerationError(f"{name} must be at least 0, got {count}")
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


def _world_lines(world: SimWorld):
    """The JSON lines of a world file: a header, then one record per page."""
    header = {"kind": "simworld", "seed": world.seed, "params": asdict(world.params),
              "seed_urls": world.seed_urls, "keywords": world.keywords}
    yield json.dumps(header) + "\n"
    for page in world.pages.values():
        yield json.dumps({"url": page.url, "domain": page.domain,
                          "relevant": page.relevant, "title": page.title,
                          "body": page.body,
                          "outlinks": [[u, a] for u, a in page.outlinks]}) + "\n"


def save_world(world: SimWorld, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_world_lines(world))


_PAGE_FIELDS = {"url": str, "domain": str, "relevant": bool, "title": str,
                "body": str, "outlinks": "links"}


def _check_page_url(url, pages, where):
    """A page is fetched by its normalized URL, so a world file holds only
    those, and each once."""
    try:
        normal = normalize_url(url)
    except MalformedUrlError as exc:
        raise GenerationError(f"{where}url {exc}") from None
    if normal != url:
        raise GenerationError(f"{where}url {url!r:.80} is not normalized; "
                              f"normalize_url gives {normal!r:.80}")
    if url in pages:
        raise GenerationError(f"{where}url {url!r:.80} repeats an earlier page's URL")


def load_world(path) -> SimWorld:
    records = json_lines(path, GenerationError)
    lineno, header = next(records, (1, None))
    where = f"{path} line {lineno}: "
    if check(header, dict, where + "the header", GenerationError).get("kind") != "simworld":
        raise GenerationError(f"{path} is not a serialized world")
    missing = [key for key in ("params", "seed", "seed_urls", "keywords") if key not in header]
    if missing:
        raise GenerationError(f"{path} header lacks {', '.join(missing)}; "
                              "regenerate the world with `treecrawl genworld`")
    raw = require(header, "params", dict, where, GenerationError)
    unknown = sorted(set(raw) - {f.name for f in fields(SimWorldParams)})
    if unknown:
        raise GenerationError(f"{path} has unknown world parameters {', '.join(unknown)}; "
                              "regenerate the world with `treecrawl genworld`")
    try:
        params = SimWorldParams(**raw)
    except GenerationError as exc:
        raise GenerationError(f"{where}params.{exc}") from None
    seed = require(header, "seed", int, where, GenerationError)
    seed_urls = require(header, "seed_urls", "strings", where, GenerationError)
    keywords = require(header, "keywords", "tokens", where, GenerationError)
    pages = {}
    links = {}  # one tuple per distinct (url, anchor), as generate_sim_world holds them
    for lineno, rec in records:
        where = f"{path} line {lineno}: "
        check(rec, dict, where + "a page", GenerationError)
        page = SimPage(**{name: require(rec, name, kind, where, GenerationError)
                          for name, kind in _PAGE_FIELDS.items()})
        _check_page_url(page.url, pages, where)
        page.outlinks = [links.setdefault(link, link) for link in map(tuple, page.outlinks)]
        pages[page.url] = page
    return SimWorld(params=params, seed=seed, keywords=keywords, seed_urls=seed_urls,
                    pages=pages)


def world_digest(world: SimWorld) -> str:
    """sha256 of the bytes save_world writes for the world."""
    h = hashlib.sha256()
    for line in _world_lines(world):
        h.update(line.encode("utf-8"))
    return h.hexdigest()
