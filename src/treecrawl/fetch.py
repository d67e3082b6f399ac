"""Page acquisition: a polite live HTTP fetcher and a lookup fetcher over a
generated world. Both return the same Page shape."""

from __future__ import annotations

import time
from dataclasses import dataclass
from html.parser import HTMLParser
from urllib.parse import urljoin, urlsplit

from .text import tokenize
from .urls import domain_of, normalize_url


@dataclass
class Page:
    url: str
    final_url: str
    title: str
    body_text: str
    outlinks: list  # (normalized url, anchor text), deduplicated by url

    def body_tokens(self):
        """tokenize(self.body_text)."""
        return tokenize(self.body_text)


class FetchFailure(Exception):
    """Fetch errors carry a category so the crawl loop can log and move on."""

    CATEGORIES = ("network", "timeout", "robots", "http", "malformed", "missing")

    def __init__(self, category, message):
        if category not in self.CATEGORIES:
            raise ValueError(f"unknown failure category {category!r}")
        super().__init__(f"{category}: {message}")
        self.category = category


class _TextExtractor(HTMLParser):
    _SKIP = frozenset({"script", "style", "noscript"})

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.title_parts = []
        self.text_parts = []
        self.links = []  # (href, anchor text)
        self._skip_depth = 0
        self._in_title = False
        self._anchor_href = None
        self._anchor_text = []

    def handle_starttag(self, tag, attrs):
        if tag in self._SKIP:
            self._skip_depth += 1
        elif tag == "title":
            self._in_title = True
        elif tag == "a":
            href = dict(attrs).get("href")
            if href:
                self._anchor_href = href
                self._anchor_text = []

    def handle_endtag(self, tag):
        if tag in self._SKIP and self._skip_depth > 0:
            self._skip_depth -= 1
        elif tag == "title":
            self._in_title = False
        elif tag == "a" and self._anchor_href is not None:
            self.links.append((self._anchor_href, " ".join(self._anchor_text)))
            self._anchor_href = None
            self._anchor_text = []

    def handle_data(self, data):
        if self._skip_depth:
            return
        text = data.strip()
        if not text:
            return
        if self._in_title:
            self.title_parts.append(text)
        else:
            self.text_parts.append(text)
            if self._anchor_href is not None:
                self._anchor_text.append(text)


def extract_page(url, final_url, html) -> Page:
    """Visible text, title, and outlinks from markup; relative links resolve
    against the final URL and non-http(s) links are dropped."""
    parser = _TextExtractor()
    parser.feed(html)
    parser.close()
    outlinks = []
    seen = set()
    for href, anchor in parser.links:
        try:  # urljoin raises ValueError on a broken IPv6 host, as "//[bad/x"
            absolute = urljoin(final_url, href)
            if urlsplit(absolute).scheme not in ("http", "https"):
                continue
            normalized = normalize_url(absolute)
        except ValueError:  # MalformedUrlError included
            continue
        if normalized in seen:
            continue
        seen.add(normalized)
        outlinks.append((normalized, anchor))
    return Page(url=url, final_url=final_url,
                title=" ".join(parser.title_parts),
                body_text=" ".join(parser.text_parts),
                outlinks=outlinks)


MAX_BODY_BYTES = 2 * 1024 * 1024  # a longer live body is cut to its first 2 MiB


def urllib_transport(url, timeout, user_agent):
    """Default transport: (status, final_url, text) via urllib, <= 3 redirects,
    reading at most MAX_BODY_BYTES of the body."""
    # The HTTP stack (urllib.request pulls in ssl) loads at the first live
    # fetch, so a simulated crawl never pays for it.
    import urllib.error
    import urllib.request

    class _LimitedRedirects(urllib.request.HTTPRedirectHandler):
        max_redirections = 3

    opener = urllib.request.build_opener(_LimitedRedirects())
    request = urllib.request.Request(url, headers={"User-Agent": user_agent})
    try:
        with opener.open(request, timeout=timeout) as response:
            body = response.read(MAX_BODY_BYTES)
            charset = response.headers.get_content_charset() or "utf-8"
            try:
                text = body.decode(charset, errors="replace")
            except LookupError:  # a charset name Python does not know
                text = body.decode("utf-8", errors="replace")
            return response.status, response.geturl(), text
    except urllib.error.HTTPError as exc:
        return exc.code, url, ""
    except urllib.error.URLError as exc:
        reason = str(exc.reason)
        if "timed out" in reason.lower():
            raise FetchFailure("timeout", f"{url}: {reason}") from None
        raise FetchFailure("network", f"{url}: {reason}") from None
    except TimeoutError as exc:
        raise FetchFailure("timeout", f"{url}: {exc}") from None
    except OSError as exc:
        raise FetchFailure("network", f"{url}: {exc}") from None


class LiveFetcher:
    """HTTP fetcher honoring robots exclusion and a per-domain request delay.

    The transport, clock, and sleep hooks are injectable so politeness can be
    audited without a network.
    """

    def __init__(self, user_agent="treecrawl/0.1", delay=1.0, timeout=10.0,
                 obey_robots=True, transport=urllib_transport,
                 clock=time.monotonic, sleep=time.sleep):
        self.user_agent = user_agent
        self.delay = delay
        self.timeout = timeout
        self.obey_robots = obey_robots
        self.transport = transport
        self.clock = clock
        self.sleep = sleep
        self._last_request = {}  # domain -> clock value
        self._robots = {}  # domain -> RobotFileParser, or None to allow all

    def _request(self, domain, url):
        last = self._last_request.get(domain)
        if last is not None:
            wait = self.delay - (self.clock() - last)
            if wait > 0:
                self.sleep(wait)
        try:
            result = self.transport(url, self.timeout, self.user_agent)
        finally:
            self._last_request[domain] = self.clock()
        return result

    def _robots_for(self, url):
        from urllib.robotparser import RobotFileParser  # imports urllib.request

        domain = domain_of(url)
        if domain in self._robots:
            return self._robots[domain]
        parts = urlsplit(url)
        robots_url = f"{parts.scheme}://{parts.netloc}/robots.txt"
        parser = RobotFileParser()
        try:
            status, _, text = self._request(domain, robots_url)
        except FetchFailure:
            status = None
        if status is None or 500 <= status <= 599:
            # RFC 9309 2.3.1.4: an unreachable robots.txt means complete disallow.
            parser.disallow_all = True
        elif status == 200:
            parser.parse(text.splitlines())
        else:
            parser = None  # any other answer, 4xx included (2.3.1.3), allows all
        self._robots[domain] = parser
        return parser

    def fetch(self, url) -> Page:
        url = normalize_url(url)
        domain = domain_of(url)
        if self.obey_robots:
            robots = self._robots_for(url)
            if robots is not None and not robots.can_fetch(self.user_agent, url):
                raise FetchFailure("robots", f"disallowed: {url}")
        status, final_url, html = self._request(domain, url)
        if status != 200:
            raise FetchFailure("http", f"status {status} for {url}")
        return extract_page(url, final_url, html)


class SimulatedPage(Page):
    """A fetched page of a simulated world. The body stays the stored page's
    word ids: body_text joins them only when read, and body_tokens takes each
    word's tokens from the word table."""

    def __init__(self, url, page):
        self.url = self.final_url = url
        self.title = page.title
        self.outlinks = list(page.outlinks)
        self._page = page

    @property
    def body_text(self):
        return self._page.body

    def body_tokens(self):
        return self._page.tokens()


class SimFetcher:
    """Pure lookup into a generated or loaded world."""

    def __init__(self, world):
        self.world = world

    def fetch(self, url) -> Page:
        # A world keys its pages by normalized URL, so only a miss is normalized.
        page = self.world.pages.get(url)
        if page is None:
            url = normalize_url(url)
            page = self.world.pages.get(url)
            if page is None:
                raise FetchFailure("missing", f"no such page {url}")
        return SimulatedPage(url, page)
