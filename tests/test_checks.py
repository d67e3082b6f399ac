import pytest

from treecrawl.checks import is_kind
from treecrawl.embeddings import load_embeddings, load_keywords
from treecrawl.reward import corpus_records, load_model
from treecrawl.simworld import load_world
from treecrawl.text import load_stopwords


@pytest.mark.parametrize("kind, good, bad", [
    (int, [0, -3, 10**20], [True, 1.0, "1", None]),
    (float, [0, 1.5, float("nan")], [False, "1.5", None, [1.0]]),
    (bool, [True, False], [0, 1, "true", None]),
    (str, ["", "a"], [b"a", 1, None]),
    (dict, [{}, {"a": 1}], [[], None, "{}"]),
    ("strings", [[], ["a", ""]], [("a",), ["a", 1], "ab", None]),
    ("links", [[], [["http://a/", "x"]]], [[["http://a/"]], [("u", "a")], [["u", 1]]]),
    ("tokens", [["topic00", "x"]], [[], ["TOPIC00"], ["a b"], ["c++"], [""], "ab"]),
    ("finite", [0, -2.5, 1e300, 10**300], [float("nan"), float("inf"), True, "1", 10**400]),
])
def test_is_kind(kind, good, bad):
    assert all(is_kind(value, kind) for value in good)
    assert not any(is_kind(value, kind) for value in bad)


# One malformed file for every reader of the package's inputs.
READERS = {
    "load_world": (load_world, '{"kind": "simworld"'),
    "corpus_records": (lambda path: list(corpus_records(path)), '{"url": "http://a/"}\n'),
    "load_model": (load_model, '{"weights": [1, 2]}'),
    "load_embeddings": (load_embeddings, "1 2\na 0.5\n"),
    "load_keywords": (load_keywords, "# no keyword\n"),
    "load_stopwords": (load_stopwords, "don't\n"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_names_the_file(tmp_path, reader):
    read, text = READERS[reader]
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(path) in str(err.value)
