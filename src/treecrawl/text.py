"""Tokenization and stopword handling shared by keyword expansion and page scoring."""

import re

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Compact English stopword list; callers may substitute their own via load_stopwords.
DEFAULT_STOPWORDS = frozenset("""
a about above after again against all am an and any are as at be because been
before being below between both but by can cannot could did do does doing down
during each few for from further had has have having he her here hers herself
him himself his how i if in into is it its itself just me more most my myself
no nor not now of off on once only or other our ours ourselves out over own
same she should so some such than that the their theirs them themselves then
there these they this those through to too under until up very was we were
what when where which while who whom why will with would you your yours
yourself yourselves
""".split())


# One string object per distinct token, so that corpora and fetched pages share
# their words instead of holding a copy per occurrence. The table stops taking
# new words once it holds this many, so a long live crawl cannot grow it
# without end; sys.intern is not used because its strings are immortal in
# CPython 3.12.
SHARED_TOKENS_MAX = 1 << 16
_shared_tokens = {}


def tokenize(text):
    """Lowercase and split into alphanumeric tokens, dropping punctuation.

    Equal tokens are one shared string object while the shared table has room.
    """
    if not text:
        return []
    tokens = _TOKEN_RE.findall(text.lower())
    shared = _shared_tokens
    lookup = shared.setdefault if len(shared) < SHARED_TOKENS_MAX else shared.get
    return list(map(lookup, tokens, tokens))


def read_words(path, kind):
    """The words of a file holding one per line, lowercased; '#' starts a
    comment. A word must be a single token, since only those can match; a
    line that is not raises ValueError naming the file and the 1-based line."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            word = line.split("#", 1)[0].strip().lower()
            if not word:
                continue
            if tokenize(word) != [word]:
                raise ValueError(f"{path}: line {line_no}: {kind} {word!r} is not a single "
                                 f"token (it tokenizes to {tokenize(word)}), so it can "
                                 "never match one")
            words.add(word)
    return frozenset(words)


def load_stopwords(path):
    """Read one stopword per line, as read_words does."""
    return read_words(path, "stopword")
