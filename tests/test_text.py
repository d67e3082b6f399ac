import re

import pytest

from treecrawl import text
from treecrawl.simworld import SimWorldParams, generate_sim_world, training_corpus
from treecrawl.text import load_stopwords, tokenize


def plain_tokenize(s):
    """Tokenization without the shared table."""
    return re.findall(r"[a-z0-9]+", s.lower()) if s else []


class TestTokenize:
    def test_same_tokens_as_plain_split(self):
        samples = ["", None, "Big Cup FINAL!", "e-mail: a.b@c.d 42x  \n\tnew-line",
                   "Ünïcode café, naïve 3.14", "topic00 topic00 TOPIC00", "---"]
        world = generate_sim_world(SimWorldParams(pages=1000, domains=40), seed=1)
        for record in training_corpus(world, 10, 20, seed=1):
            samples += [record["title"], record["text"], record["url"]]
        for sample in samples:
            assert tokenize(sample) == plain_tokenize(sample)

    def test_equal_tokens_are_one_object(self):
        first = tokenize("Sharedword alpha")
        second = tokenize("beta SHAREDWORD sharedword")
        assert first[0] == second[1] == second[2]
        assert first[0] is second[1] and second[1] is second[2]

    def test_table_stops_growing_when_full(self, monkeypatch):
        table = {}
        monkeypatch.setattr(text, "_shared_tokens", table)
        monkeypatch.setattr(text, "SHARED_TOKENS_MAX", 3)
        assert tokenize("a b c d") == ["a", "b", "c", "d"]
        assert len(table) == 4  # a call that starts below the bound is shared whole
        later = tokenize("e f a")
        assert later == ["e", "f", "a"]
        assert len(table) == 4 and "e" not in table
        assert later[2] is table["a"]


class TestStopwordFiles:
    def test_inline_comments_stripped(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# articles\nThe # definite\n\n  an\n")
        assert load_stopwords(path) == {"the", "an"}

    @pytest.mark.parametrize("body, line_no, word", [("the\ndon't\n", 2, "don't"),
                                                     ("# x\n\nnew york\n", 3, "new york")])
    def test_stopword_that_no_token_can_equal_refused(self, tmp_path, body, line_no, word):
        path = tmp_path / "stop.txt"
        path.write_text(body)
        with pytest.raises(ValueError) as err:
            load_stopwords(path)
        assert f"{path}: line {line_no}: stopword {word!r} is not a single token" in str(err.value)
