import importlib
import json
import math

import numpy as np
import pytest

from treecrawl.embeddings import KeywordSet
from treecrawl.reward import (InvalidParameterError, MemoizedModel, PageText, RelevanceModel,
                              TrainingDegenerateWarning, keyword_count,
                              keyword_vector, load_corpus_jsonl, load_model,
                              macro_f1, relevance_probability, reward,
                              save_model, train)
from treecrawl.text import tokenize


# The module, not the reward function that the package re-exports by its name.
reward_module = importlib.import_module("treecrawl.reward")


@pytest.fixture
def kws():
    return KeywordSet(frozenset({"football", "cup", "league"}))


class TestKeywordCount:
    def test_empty_text(self, kws):
        assert keyword_count([], kws) == 0

    def test_multiplicity(self):
        ks = KeywordSet(frozenset({"football"}))
        assert keyword_count(["football", "cup", "football"], ks) == 2

    def test_matches_naive_double_loop(self, kws):
        rng = np.random.default_rng(3)
        pool = ["football", "cup", "league", "red", "blue", "green", "goal"]
        tokens = [pool[i] for i in rng.integers(0, len(pool), size=50)]
        naive = sum(1 for t in tokens for k in kws.combined if t == k)
        assert keyword_count(tokens, kws) == naive


class TestKeywordVector:
    def test_no_keywords(self, kws):
        page = PageText(url="http://x.com/a", title=(), body=("red", "blue"), n_p=2)
        assert np.array_equal(keyword_vector(page, kws, mu=2.0), [0.0, 0.0, 0.0])

    def test_clamped_density(self, kws):
        body = tuple(["football"] * 12 + ["pad"] * 88)
        page = PageText(url="http://x.com/a", title=(), body=body, n_p=100)
        kv = keyword_vector(page, kws, mu=6.0)
        assert kv[0] == 1.0  # 12/6 clamps to 1
        assert kv[1] == pytest.approx(0.12)
        assert kv[2] == 0.0

    def test_url_flag(self, kws):
        ks = KeywordSet(frozenset({"food"}))
        page = PageText(url="http://example.com/food-recipes", title=(), body=(), n_p=0)
        assert keyword_vector(page, ks, mu=1.0)[2] == 1.0

    def test_invalid_mu(self, kws):
        page = PageText(url="u", title=(), body=(), n_p=0)
        with pytest.raises(InvalidParameterError):
            keyword_vector(page, kws, mu=0.0)

    def test_zero_length_body_gives_zero_density(self, kws):
        page = PageText(url="http://x.com", title=(), body=(), n_p=0)
        assert keyword_vector(page, kws, mu=1.0)[1] == 0.0

    def test_ranges_fuzz(self, kws):
        rng = np.random.default_rng(11)
        pool = ["football", "cup", "pad", "x", "y"]
        for _ in range(300):
            n = int(rng.integers(0, 40))
            tokens = [pool[i] for i in rng.integers(0, len(pool), size=n)]
            page = PageText.from_page("http://a.com/cup", "t", " ".join(tokens))
            kv = keyword_vector(page, kws, mu=float(rng.uniform(0.5, 10)))
            assert 0.0 <= kv[0] <= 1.0
            assert 0.0 <= kv[1] <= 1.0
            assert kv[2] in (0.0, 1.0)


class TestPageText:
    def test_truncation(self):
        page = PageText.from_page("u", "title words", "a b c d e", max_len=3)
        assert page.body == ("a", "b", "c")
        assert page.n_p == 5

    def test_body_given_as_tokens(self):
        text = "Cup-final: A b c"
        assert (PageText.from_page("u", "T", tokenize(text), max_len=3)
                == PageText.from_page("u", "T", text, max_len=3))


def separable_pages(n_rel, n_irr, seed=0):
    """Relevant pages packed with keywords, irrelevant without; oracle is the rule."""
    rng = np.random.default_rng(seed)
    rel, irr = [], []
    for i in range(n_rel):
        k = int(rng.integers(3, 9))
        body = " ".join(["football"] * k + ["pad"] * (40 - k))
        rel.append(PageText.from_page(f"http://rel.com/p{i}", "football news", body))
    for i in range(n_irr):
        body = " ".join(["pad"] * 40)
        irr.append(PageText.from_page(f"http://irr.com/p{i}", "other news", body))
    return rel, irr


class TestTraining:
    def test_mu_is_mean_relevant_count(self, kws):
        a = PageText.from_page("u1", "", " ".join(["football"] * 4 + ["pad"] * 10))
        b = PageText.from_page("u2", "", " ".join(["cup"] * 8 + ["pad"] * 10))
        irr = [PageText.from_page("u3", "", "pad pad pad")]
        model = train([a, b], irr, kws, epochs=5)
        assert model.mu == pytest.approx(6.0)

    def test_separable_fixture_perfect_heldout(self, kws):
        rel, irr = separable_pages(40, 40)
        model = train(rel, irr, kws, seed=1)
        preds = [reward(model, p, kws) for p in rel + irr]
        truth = [1] * len(rel) + [0] * len(irr)
        assert preds == truth

    def test_imbalanced_fixture_macro_f1(self, kws):
        rel, irr = separable_pages(200, 1800, seed=2)
        model = train(rel, irr, kws, seed=2)
        preds = np.array([reward(model, p, kws) for p in rel + irr])
        truth = np.array([1] * len(rel) + [0] * len(irr))
        assert macro_f1(truth, preds) >= 0.9

    def test_loss_non_increasing_small_step(self, kws):
        rel, irr = separable_pages(30, 30, seed=3)
        model = train(rel, irr, kws, learning_rate=0.05, epochs=300, seed=3)
        losses = np.array(model.loss_curve)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_degenerate_falls_back_to_majority(self, kws):
        # identical keyword vectors in both classes
        rel = [PageText.from_page(f"http://r.com/{i}", "", "pad pad") for i in range(3)]
        irr = [PageText.from_page(f"http://i.com/{i}", "", "pad pad") for i in range(7)]
        with pytest.warns(TrainingDegenerateWarning):
            model = train(rel, irr, kws)
        preds = [reward(model, p, kws) for p in rel + irr]
        assert preds == [0] * 10  # majority class is irrelevant

    def test_empty_class_rejected(self, kws):
        with pytest.raises(InvalidParameterError):
            train([], [PageText.from_page("u", "", "pad")], kws)


class TestScoring:
    def test_sigmoid_of_zero(self, kws):
        model = RelevanceModel(weights=np.zeros(3), bias=0.0, mu=1.0, threshold=0.5)
        page = PageText.from_page("http://x.com", "", "pad pad")
        assert relevance_probability(model, page, kws) == 0.5

    def test_monotone_in_first_feature(self, kws):
        # only kv1 carries weight, so the score must match the direct sigmoid
        # and increase strictly with the keyword count below the clamp
        model = RelevanceModel(weights=np.array([3.0, 0.0, 0.0]), bias=-1.0,
                               mu=4.0, threshold=0.5)
        last = -1.0
        for count in range(5):
            body = " ".join(["football"] * count + ["pad"] * 20)
            page = PageText.from_page("http://x.com", "", body)
            prob = relevance_probability(model, page, kws)
            kv1 = min(count / 4.0, 1.0)
            direct = 1.0 / (1.0 + math.exp(-(3.0 * kv1 - 1.0)))
            assert prob == pytest.approx(direct, abs=1e-12)
            assert prob > last
            last = prob

    def test_reward_threshold_rules(self, kws):
        page = PageText.from_page("http://x.com", "", "pad")
        low = RelevanceModel(weights=np.array([0.0, 0.0, 0.0]), bias=-50.0,
                             mu=1.0, threshold=0.5)
        assert reward(low, page, kws) == 0
        boundary = RelevanceModel(weights=np.zeros(3), bias=0.0, mu=1.0, threshold=0.5)
        assert reward(boundary, page, kws) == 1  # probability exactly at threshold

    def test_reward_iff_probability_reaches_threshold(self, kws):
        rng = np.random.default_rng(9)
        model = RelevanceModel(weights=rng.normal(size=3), bias=0.1, mu=2.0,
                               threshold=0.4)
        pool = ["football", "pad", "cup", "zz"]
        for _ in range(100):
            tokens = [pool[i] for i in rng.integers(0, 4, size=rng.integers(0, 30))]
            page = PageText.from_page("http://a.com/cup", "", " ".join(tokens))
            p = relevance_probability(model, page, kws)
            assert reward(model, page, kws) == (1 if p >= model.threshold else 0)


class TestMemoizedModel:
    TRIPLES = [(c, n, u) for c in range(4) for n in (0, 5, 80) for u in (False, True)]

    def model(self):
        return RelevanceModel(weights=np.array([0.7, -2.0, 1.5]), bias=-0.3, mu=3.0,
                              threshold=0.4)

    def test_each_triple_computed_once(self, monkeypatch):
        model = self.model()
        expected = [model.relevance(*t) for t in self.TRIPLES]
        memo = MemoizedModel(model)
        calls = []
        probability = RelevanceModel.probability
        monkeypatch.setattr(RelevanceModel, "probability",
                            lambda self, kv: calls.append(1) or probability(self, kv))
        for _ in range(3):
            assert [memo.relevance(*t) for t in self.TRIPLES] == expected
        assert len(calls) == len(self.TRIPLES)

    def test_full_memo_still_answers(self, monkeypatch):
        monkeypatch.setattr(reward_module, "RELEVANCE_MEMO_MAX", 5)
        model = self.model()
        memo = MemoizedModel(model)
        for _ in range(2):
            assert ([memo.relevance(*t) for t in self.TRIPLES]
                    == [model.relevance(*t) for t in self.TRIPLES])
        assert len(memo._memo) == 5

    def test_reward_served_from_memo(self, kws):
        model = self.model()
        memo = MemoizedModel(model)
        for body in ("", "pad cup", "football cup league pad", "cup " * 30):
            page = PageText.from_page("http://a.com/cup", "", body)
            assert relevance_probability(memo, page, kws) == relevance_probability(
                model, page, kws) == model.probability(keyword_vector(page, kws, model.mu))
            assert reward(memo, page, kws) == reward(model, page, kws)


class TestPersistence:
    def test_model_round_trip(self, tmp_path, kws):
        rel, irr = separable_pages(10, 10)
        model = train(rel, irr, kws, epochs=50)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.mu == model.mu
        assert loaded.threshold == model.threshold
        record = json.loads(path.read_text())
        assert set(record) == {"weights", "bias", "mu", "threshold"}

    @pytest.mark.parametrize("field, record", [
        ("weights", {"weights": [1.0, 2.0, 10 ** 400]}),
        ("bias", {"bias": 10 ** 400})])
    def test_huge_integer_named(self, tmp_path, field, record):
        path = tmp_path / "model.json"
        base = {"weights": [1.0, 2.0, 3.0], "bias": 0.5, "mu": 2.0, "threshold": 0.5}
        path.write_text(json.dumps({**base, **record}))
        with pytest.raises(InvalidParameterError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: model field {field}")

    def test_corpus_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [
            {"url": "http://a.com", "title": "T", "text": "football cup", "label": 1},
            {"url": "http://b.com", "title": "U", "text": "pad", "label": 0},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        rel, irr = load_corpus_jsonl(path)
        assert len(rel) == 1 and len(irr) == 1
        assert rel[0].body == ("football", "cup")

    @pytest.mark.parametrize("line, field", [
        ("{}", "url is missing"),
        ('{"url": "http://a.com"}', "label is missing"),
        ("not json", "is not JSON"),
        ("[1, 2]", "must be an object"),
        ('{"url": 7, "label": 1}', "url must be a string"),
        ('{"url": "http://a.com", "title": 3, "label": 1}', "title must be a string"),
        ('{"url": "http://a.com", "text": null, "label": 1}', "text must be a string"),
        ('{"url": "http://a.com", "label": "yes"}', "label must be 0 or 1"),
        ('{"url": "http://a.com", "label": 2}', "label must be 0 or 1"),
        ('{"url": "http://a.com", "label": true}', "label must be 0 or 1"),
        ('{"url": "http://a.com", "label": 1.0}', "label must be 0 or 1"),
    ])
    def test_corpus_lines_checked(self, tmp_path, line, field):
        path = tmp_path / "corpus.jsonl"
        good = json.dumps({"url": "http://b.com", "text": "pad", "label": 0})
        path.write_text(good + "\n\n" + line + "\n")
        with pytest.raises(InvalidParameterError) as err:
            load_corpus_jsonl(path)
        assert f"{path} line 3" in str(err.value)
        assert field in str(err.value)
