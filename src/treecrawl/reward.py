"""Keyword-count page features and the binary relevance reward.

Pages are reduced to a three-component feature vector built from keyword
occurrences; a logistic model over those features supplies both the scalar
relevance probability used in action features and the 0/1 reward.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checks import check, is_kind, json_lines, parse_json, require
from .embeddings import KeywordSet
from .text import tokenize

DEFAULT_MAX_TEXT_LEN = 500


class InvalidParameterError(ValueError):
    pass


class TrainingDegenerateWarning(UserWarning):
    pass


@dataclass(frozen=True)
class PageText:
    """Tokenized page with the body truncated to a maximum length.

    n_p is the body token count before truncation, so the raw-density feature
    stays normalized by the true page length. No reward feature reads a
    page's title, so none is kept.
    """

    url: str
    body: tuple
    n_p: int

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
        if self.n_p < len(self.body):
            raise InvalidParameterError(f"n_p={self.n_p} smaller than stored body length {len(self.body)}")

    @classmethod
    def from_page(cls, url, title_text, body, max_len=DEFAULT_MAX_TEXT_LEN):
        """The page of a body given as its text or as the list of its tokens,
        as tokenize gives them. title_text is taken, as a page record holds
        it, and dropped unread."""
        if isinstance(body, str):
            body = tokenize(body)
        return cls(url=url, body=tuple(body[:max_len]), n_p=len(body))


def keyword_count(tokens, keywords: KeywordSet) -> int:
    """Occurrences, with multiplicity, of any combined-set keyword in the sequence."""
    kws = keywords.combined
    count = 0
    for t in tokens:  # a plain loop: twice as fast as sum() on short anchors
        if t in kws:
            count += 1
    return count


def keyword_in_url(url, keywords: KeywordSet) -> bool:
    low = url.lower()
    for k in keywords.combined:
        if k in low:
            return True
    return False


def keyword_vector(page: PageText, keywords: KeywordSet, mu: float) -> np.ndarray:
    """(clamped density vs mu, raw density, keyword-in-URL flag), each in [0, 1]."""
    return count_vector(keyword_count(page.body, keywords), page.n_p,
                        keyword_in_url(page.url, keywords), mu)


def count_vector(count, n_p, in_url, mu) -> np.ndarray:
    """keyword_vector of a page whose n_p tokens hold `count` keywords and whose
    URL does (in_url) or does not hold one."""
    if mu <= 0:
        raise InvalidParameterError(f"mu must be positive, got {mu}")
    kv1 = min(count / mu, 1.0)
    kv2 = count / n_p if n_p > 0 else 0.0
    kv3 = 1.0 if in_url else 0.0
    return np.array([kv1, kv2, kv3], dtype=np.float64)


@dataclass
class RelevanceModel:
    """Logistic model over the keyword feature vector."""

    weights: np.ndarray
    bias: float
    mu: float
    threshold: float
    loss_curve: list = field(default_factory=list, repr=False, compare=False)

    def probability(self, kv: np.ndarray) -> float:
        z = float(np.dot(self.weights, kv) + self.bias)
        return _sigmoid(z)

    def relevance(self, count, n_p, in_url) -> float:
        """The probability of a page whose n_p tokens hold `count` keywords and
        whose URL does (in_url) or does not hold one."""
        return self.probability(count_vector(count, n_p, in_url, self.mu))


# A memoized model keeps the probabilities of this many distinct triples. The
# simulated web has a few dozen; a live crawl adds about one per page.
RELEVANCE_MEMO_MAX = 1 << 16


class MemoizedModel(RelevanceModel):
    """A copy of the model whose relevance() computes each distinct
    (count, n_p, in_url) triple once. A crawl makes one for its run, during
    which the parameters do not change."""

    def __init__(self, model: RelevanceModel):
        super().__init__(model.weights, model.bias, model.mu, model.threshold)
        self._memo = {}

    def relevance(self, count, n_p, in_url) -> float:
        key = (count, n_p, in_url)
        p = self._memo.get(key)
        if p is None:
            p = super().relevance(count, n_p, in_url)
            if len(self._memo) < RELEVANCE_MEMO_MAX:
                self._memo[key] = p
        return p


def _sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def relevance_probability(model: RelevanceModel, page: PageText, keywords: KeywordSet) -> float:
    """The model's probability of the page's keyword_vector."""
    return model.relevance(keyword_count(page.body, keywords), page.n_p,
                           keyword_in_url(page.url, keywords))


def reward(model: RelevanceModel, page: PageText, keywords: KeywordSet) -> int:
    """1 iff the relevance probability reaches the decision threshold."""
    return 1 if relevance_probability(model, page, keywords) >= model.threshold else 0


def macro_f1(y_true, y_pred) -> float:
    """Arithmetic mean of per-class F1 over the two classes."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    scores = []
    for cls in (0, 1):
        tp = np.sum((y_pred == cls) & (y_true == cls))
        fp = np.sum((y_pred == cls) & (y_true != cls))
        fn = np.sum((y_pred != cls) & (y_true == cls))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def train(relevant, irrelevant, keywords: KeywordSet, *,
          epochs=800, learning_rate=1.0, holdout_fraction=0.2, seed=0) -> RelevanceModel:
    """Fit the logistic relevance model by full-batch gradient descent on cross-entropy.

    mu is frozen to the mean keyword count over the relevant training pages.
    The decision threshold is picked on a stratified held-out split to
    maximize macro-F1.
    """
    relevant = list(relevant)
    irrelevant = list(irrelevant)
    if not relevant or not irrelevant:
        raise InvalidParameterError("both relevant and irrelevant training sets must be non-empty")

    mu = float(np.mean([keyword_count(p.body, keywords) for p in relevant]))
    if mu <= 0:
        warnings.warn("relevant training pages contain no keywords; mu floored",
                      TrainingDegenerateWarning)
        mu = 1e-12

    pages = relevant + irrelevant
    labels = np.array([1] * len(relevant) + [0] * len(irrelevant), dtype=np.float64)
    X = np.stack([keyword_vector(p, keywords, mu) for p in pages])

    if np.allclose(X, X[0]):
        majority = 1 if len(relevant) >= len(irrelevant) else 0
        warnings.warn("all keyword vectors identical across classes; "
                      "falling back to majority-threshold model", TrainingDegenerateWarning)
        # probability is constant 0.5; the threshold alone fixes the prediction
        thr = 0.0 if majority == 1 else 1.0
        return RelevanceModel(weights=np.zeros(X.shape[1]), bias=0.0, mu=mu, threshold=thr)

    rng = np.random.default_rng(seed)
    train_idx, hold_idx = _stratified_split(labels, holdout_fraction, rng)
    Xt, yt = X[train_idx], labels[train_idx]

    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    n = len(yt)
    loss_curve = []
    for _ in range(epochs):
        z = Xt @ w + b
        p = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        eps = 1e-12
        loss = -float(np.mean(yt * np.log(p + eps) + (1 - yt) * np.log(1 - p + eps)))
        loss_curve.append(loss)
        grad = (p - yt) / n
        w -= learning_rate * (Xt.T @ grad)
        b -= learning_rate * float(np.sum(grad))

    model = RelevanceModel(weights=w, bias=b, mu=mu, threshold=0.5, loss_curve=loss_curve)
    probs = np.array([model.probability(x) for x in X[hold_idx]])
    model.threshold = _best_threshold(probs, labels[hold_idx])
    return model


def _stratified_split(labels, holdout_fraction, rng):
    train_idx, hold_idx = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        k = max(1, int(round(len(idx) * holdout_fraction))) if len(idx) > 1 else 0
        hold_idx.extend(idx[:k])
        train_idx.extend(idx[k:] if k < len(idx) else idx)
    return np.array(sorted(train_idx)), np.array(sorted(hold_idx))


def _best_threshold(probs, labels) -> float:
    if len(probs) == 0:
        return 0.5
    candidates = sorted(set(probs.tolist()) | {0.5})
    best_thr, best_score = 0.5, -1.0
    for thr in candidates:
        preds = (probs >= thr).astype(int)
        score = macro_f1(labels, preds)
        if score > best_score:
            best_thr, best_score = thr, score
    return float(best_thr)


def save_model(model: RelevanceModel, path):
    record = {
        "weights": [float(v) for v in model.weights],
        "bias": float(model.bias),
        "mu": float(model.mu),
        "threshold": float(model.threshold),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def load_model(path) -> RelevanceModel:
    """Read a save_model record; a malformed file or field raises an
    InvalidParameterError naming the file and the field."""
    error = InvalidParameterError
    with open(path, encoding="utf-8") as fh:
        record = check(parse_json(fh.read(), path, error), dict, f"{path}: the model record",
                       error)
    where = f"{path}: model field "
    weights = record.get("weights")
    if not (isinstance(weights, list) and len(weights) == 3
            and all(is_kind(w, "finite") for w in weights)):
        raise error(f"{where}weights must be 3 finite numbers, got {weights!r:.60}")
    bias, mu, threshold = (require(record, name, "finite", where, error)
                           for name in ("bias", "mu", "threshold"))
    if mu <= 0:
        raise error(f"{where}mu must be positive, got {mu!r}")
    return RelevanceModel(weights=np.array(weights, dtype=np.float64), bias=float(bias),
                          mu=float(mu), threshold=float(threshold))


def corpus_records(path, labeled=True):
    """The page records of a JSONL corpus, one object per non-blank line, with
    `title` and `text` strings when present and, when labeled, a `url` string
    and a `label` of exactly 0 or 1. A malformed line raises an
    InvalidParameterError naming the file, the 1-based line and the field."""
    error = InvalidParameterError
    for lineno, record in json_lines(path, error):
        where = f"{path} line {lineno}: "
        check(record, dict, where + "a page record", error)
        for name in ("url", "label") if labeled else ():
            if name not in record:
                raise error(f"{where}{name} is missing")
        for name in ("url", "title", "text"):
            if name in record:
                check(record[name], str, where + name, error)
        if labeled and not (is_kind(record["label"], int) and record["label"] in (0, 1)):
            raise error(f"{where}label must be 0 or 1, got {record['label']!r:.60}")
        yield record


def load_corpus_jsonl(path, max_len=DEFAULT_MAX_TEXT_LEN):
    """Read labeled page records {url, title, text, label} and split by label."""
    if max_len < 1:
        raise InvalidParameterError(f"max_len must be at least 1, got {max_len}")
    relevant, irrelevant = [], []
    for record in corpus_records(path):
        page = PageText.from_page(record["url"], record.get("title", ""),
                                  record.get("text", ""), max_len=max_len)
        (relevant if record["label"] == 1 else irrelevant).append(page)
    return relevant, irrelevant
