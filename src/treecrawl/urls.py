"""URL canonicalization so the fetch-once rule sees one spelling per resource."""

from functools import lru_cache
from urllib.parse import urlsplit

_UNRESERVED = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)
_DEFAULT_PORTS = {"http": "80", "https": "443"}
# URLs whose domain is remembered. A crawl asks for one URL's domain many times
# (cap checks, hub features, fetch bookkeeping); the 100,000 URLs of
# SimWorldParams(pages=100_000) fit.
DOMAIN_CACHE_SIZE = 1 << 17


class MalformedUrlError(ValueError):
    pass


def _normalize_percent(s):
    # Decode unreserved characters, uppercase remaining escapes; idempotent.
    out = []
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch == "%" and i + 3 <= n:
            hex_part = s[i + 1:i + 3]
            if all(c in "0123456789abcdefABCDEF" for c in hex_part):
                decoded = chr(int(hex_part, 16))
                if decoded in _UNRESERVED:
                    out.append(decoded)
                else:
                    out.append("%" + hex_part.upper())
                i += 3
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def normalize_url(raw) -> str:
    """Canonical form: lowercased scheme/host, default ports and fragments
    stripped, trailing slash folded, percent-escapes normalized."""
    if not isinstance(raw, str) or not raw.strip():
        raise MalformedUrlError(f"not a URL: {raw!r}")
    try:
        parts = urlsplit(raw.strip())
    except ValueError as exc:
        raise MalformedUrlError(f"cannot parse {raw!r}: {exc}") from None
    if not parts.scheme or not parts.netloc:
        raise MalformedUrlError(f"missing scheme or host in {raw!r}")

    scheme = parts.scheme.lower()
    host = parts.hostname
    if not host:
        raise MalformedUrlError(f"missing host in {raw!r}")
    host = host.lower()
    try:
        port = parts.port
    except ValueError as exc:  # out of range or not a number
        raise MalformedUrlError(f"bad port in {raw!r}: {exc}") from None
    netloc = f"[{host}]" if ":" in host else host  # an IPv6 literal keeps its brackets
    if port is not None and str(port) != _DEFAULT_PORTS.get(scheme):
        netloc = f"{netloc}:{port}"

    path = _normalize_percent(parts.path)
    path = path.rstrip("/")

    url = f"{scheme}://{netloc}{path}"
    if parts.query:
        url += "?" + _normalize_percent(parts.query)
    return url


@lru_cache(maxsize=DOMAIN_CACHE_SIZE)
def domain_of(url) -> str:
    """Host component, lowercased, ports stripped; subdomains are distinct domains.

    Memoized; a malformed URL raises on every call, as errors are not cached.
    """
    try:
        parts = urlsplit(url)
    except ValueError as exc:
        raise MalformedUrlError(f"cannot parse {url!r}: {exc}") from None
    host = parts.hostname
    if not host:
        raise MalformedUrlError(f"missing host in {url!r}")
    return host.lower()
