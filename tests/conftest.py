import numpy as np
import pytest

from treecrawl import KeywordSet, RelevanceModel, generate_sim_world, training_corpus
from treecrawl.reward import PageText, train
from treecrawl.simworld import SimPage, SimWorld, SimWorldParams


@pytest.fixture
def keywords():
    return KeywordSet(frozenset({"topic00", "topic01", "topic02"}))


@pytest.fixture(scope="session")
def acceptance_world():
    """The acceptance world (SimWorldParams() seed 0), its keyword set and the
    relevance model trained on its corpus."""
    world = generate_sim_world(SimWorldParams(), seed=0)
    keywords = KeywordSet(frozenset(world.keywords))
    pages = [(PageText.from_page(r["url"], r["title"], r["text"]), r["label"])
             for r in training_corpus(world, 150, 1500, seed=0)]
    model = train([p for p, label in pages if label == 1],
                  [p for p, label in pages if label == 0], keywords, seed=0)
    return world, keywords, model


@pytest.fixture
def oracle_model():
    """Handcrafted relevance model: any keyword in the body means relevant.

    kv1 = min(count/mu, 1) with mu = 1 jumps to 1 at the first keyword, so
    sigmoid(10*kv1 - 5) is ~0.9933 with a keyword and ~0.0067 without.
    """
    return RelevanceModel(weights=np.array([10.0, 0.0, 0.0]), bias=-5.0,
                          mu=1.0, threshold=0.5)


def make_world(pages):
    """Assemble a hand-specified world from (url, relevant, title, body, outlinks)."""
    records = {}
    from treecrawl.urls import domain_of
    for url, relevant, title, body, outlinks in pages:
        records[url] = SimPage(url=url, domain=domain_of(url), relevant=relevant,
                               title=title, body=body, outlinks=list(outlinks))
    params = SimWorldParams(pages=max(10, len(records)))
    return SimWorld(params=params, seed=0, keywords=["topic00", "topic01", "topic02"],
                    seed_urls=[pages[0][0]], pages=records)


@pytest.fixture
def chain_world():
    """12 pages in a single chain; page i links only to page i+1."""
    pages = []
    for i in range(12):
        url = f"http://chain.sim/p{i:02d}"
        nxt = f"http://chain.sim/p{i+1:02d}"
        relevant = i % 3 != 2  # mixed rewards so splits can happen
        body = "topic00 words here" if relevant else "plain words here"
        outlinks = [(nxt, "next page")] if i < 11 else []
        pages.append((url, relevant, "t", body, outlinks))
    return make_world(pages)
