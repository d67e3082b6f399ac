"""Word-vector table, cosine similarity, and keyword set expansion.

A small seed keyword set is grown by admitting every corpus token whose mean
cosine similarity to the seed keywords reaches the self-similarity threshold
of the seed set itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .text import DEFAULT_STOPWORDS, read_words


class EmbeddingParseError(ValueError):
    """A word-vector file not in the text format; names the file and the line."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}: line {line_no}: {message}")
        self.line_no = line_no


class UndefinedSimilarityError(ValueError):
    """Cosine similarity of a zero-norm vector is undefined."""


class InsufficientKeywordsError(ValueError):
    """The expansion threshold needs at least two initial keywords."""


class MissingEmbeddingError(KeyError):
    def __init__(self, tokens):
        tokens = sorted(tokens)
        super().__init__(f"no embedding for: {', '.join(tokens)}")
        self.tokens = frozenset(tokens)


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable token -> vector mapping with a fixed dimension."""

    dimension: int
    entries: dict

    def __contains__(self, token):
        return token in self.entries

    def __len__(self):
        return len(self.entries)

    def vector(self, token):
        return self.entries[token]


@dataclass(frozen=True)
class KeywordSet:
    """Initial keywords plus those discovered by expansion; the two never overlap."""

    initial: frozenset
    discovered: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "discovered", frozenset(self.discovered))
        overlap = self.initial & self.discovered
        if overlap:
            raise ValueError(f"keywords both initial and discovered: {sorted(overlap)}")
        object.__setattr__(self, "_combined", self.initial | self.discovered)

    @property
    def combined(self):
        return self._combined


def load_embeddings(path) -> EmbeddingTable:
    """Parse a text word-vector file: header "<count> <dim>", then one token per line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not any(line.strip() for line in lines):
        raise EmbeddingParseError(path, 1, "empty embedding file")

    header = lines[0].split()
    if len(header) != 2:
        raise EmbeddingParseError(path, 1, f"expected '<count> <dim>' header, got {lines[0]!r}")
    try:
        _count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise EmbeddingParseError(path, 1, f"non-integer header fields in {lines[0]!r}") from None
    if dim <= 0:
        raise EmbeddingParseError(path, 1, f"dimension must be positive, got {dim}")

    entries = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        token = parts[0].lower()
        values = parts[1:]
        if len(values) != dim:
            raise EmbeddingParseError(
                path, i, f"token {token!r} has {len(values)} components, expected {dim}")
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise EmbeddingParseError(path, i, f"non-numeric component for token {token!r}") from None
        if token not in entries:  # duplicates resolved by first occurrence
            vec.setflags(write=False)
            entries[token] = vec
    if not entries:
        raise EmbeddingParseError(path, 2, "no token entries after header")
    return EmbeddingTable(dimension=dim, entries=entries)


def save_keywords(keywords: KeywordSet, path, scores=None):
    """Write the combined keyword set, one per line, discovered ones last."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# initial\n")
        for k in sorted(keywords.initial):
            fh.write(k + "\n")
        if keywords.discovered:
            fh.write("# discovered\n")
            for k in sorted(keywords.discovered):
                if scores is not None and k in scores:
                    fh.write(f"{k}  # score={scores[k]:.6f}\n")
                else:
                    fh.write(k + "\n")


def load_keywords(path) -> KeywordSet:
    """Read one keyword per line, as read_words does; all become initial keywords."""
    words = read_words(path, "keyword")
    if not words:
        raise ValueError(f"{path} holds no keyword, so no page could match one")
    return KeywordSet(initial=words)


def cosine(u, v) -> float:
    """Standard cosine similarity, clipped into [-1, 1] against rounding overshoot."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"vector lengths differ: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise UndefinedSimilarityError("cosine undefined for zero-norm vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _require_embedded(tokens, table):
    missing = {t for t in tokens if t not in table}
    if missing:
        raise MissingEmbeddingError(missing)


def threshold_b(initial_keywords, table: EmbeddingTable) -> float:
    """Mean cosine over all ordered pairs (i, j), i != j, of the initial keywords."""
    keys = sorted(set(initial_keywords))
    n = len(keys)
    if n < 2:
        raise InsufficientKeywordsError(f"need at least 2 initial keywords, got {n}")
    _require_embedded(keys, table)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += cosine(table.vector(keys[i]), table.vector(keys[j]))
    return total / (n * (n - 1))


def score_candidates(keywords: KeywordSet, corpus, table: EmbeddingTable,
                     stopwords=DEFAULT_STOPWORDS):
    """Mean cosine of each distinct candidate corpus token against the initial keywords.

    Tokens already in the keyword set, stopwords, and tokens without an
    embedding are not candidates. Corpus is any iterable of token sequences.
    """
    initial = sorted(keywords.initial)
    _require_embedded(initial, table)
    seed_vectors = [table.vector(k) for k in initial]
    excluded = keywords.combined
    scores = {}
    for doc in corpus:
        for token in doc:
            if token in scores or token in excluded:
                continue
            if stopwords and token in stopwords:
                continue
            if token not in table:
                continue  # unembeddable tokens cannot be scored
            vec = table.vector(token)
            scores[token] = sum(cosine(vec, sv) for sv in seed_vectors) / len(seed_vectors)
    return scores


def expand_keywords(keywords: KeywordSet, corpus, table: EmbeddingTable,
                    stopwords=DEFAULT_STOPWORDS) -> KeywordSet:
    """Admit every candidate whose mean cosine to the initial keywords is >= the threshold."""
    b = threshold_b(keywords.initial, table)
    scores = score_candidates(keywords, corpus, table, stopwords=stopwords)
    admitted = {token for token, score in scores.items() if score >= b}
    return KeywordSet(initial=keywords.initial, discovered=keywords.discovered | admitted)
