import email.message
import os
import subprocess
import sys
import urllib.request

import pytest

import treecrawl
from treecrawl.fetch import (MAX_BODY_BYTES, FetchFailure, LiveFetcher, SimFetcher,
                             extract_page, urllib_transport)
from treecrawl.simworld import SimWorldParams, generate_sim_world, load_world, save_world
from treecrawl.text import tokenize

from conftest import make_world

HTML = """
<html><head><title>Big Cup Final</title>
<script>var x = "ignore me";</script>
<style>p { color: red }</style></head>
<body>
<p>Visible   text here.</p>
<a href="/relative">Relative Link</a>
<a href="http://Other.COM:80/x#frag">Other Site</a>
<a href="http://other.com/x">duplicate target</a>
<a href="mailto:someone@example.com">mail</a>
<a href="ftp://files.example.com/f">ftp</a>
</body></html>
"""


class TestExtraction:
    def test_title_text_and_links(self):
        page = extract_page("http://site.com/page", "http://site.com/page", HTML)
        assert page.title == "Big Cup Final"
        assert "Visible" in page.body_text and "text here." in page.body_text
        assert "ignore me" not in page.body_text
        assert "color" not in page.body_text
        urls = [u for u, _ in page.outlinks]
        assert urls == ["http://site.com/relative", "http://other.com/x"]
        anchors = dict(page.outlinks)
        assert anchors["http://site.com/relative"] == "Relative Link"

    def test_outlinks_deduplicated_by_normalized_url(self):
        page = extract_page("http://site.com/", "http://site.com/", HTML)
        urls = [u for u, _ in page.outlinks]
        assert len(urls) == len(set(urls))


class _ScriptedTransport:
    """Transport stub returning preset responses and recording request times."""

    def __init__(self, responses, clock):
        self.responses = responses
        self.clock = clock
        self.calls = []  # (url, time)

    def __call__(self, url, timeout, user_agent):
        self.calls.append((url, self.clock()))
        result = self.responses.get(url)
        if result is None:
            raise FetchFailure("network", f"unscripted {url}")
        return result


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def make_fetcher(responses, delay=1.0, obey_robots=True):
    clock = _FakeClock()
    transport = _ScriptedTransport(responses, clock)
    fetcher = LiveFetcher(delay=delay, obey_robots=obey_robots, transport=transport,
                          clock=clock, sleep=clock.sleep)
    return fetcher, transport, clock


class TestLiveFetcher:
    def test_politeness_delay_between_same_domain_requests(self):
        responses = {
            "http://a.com/robots.txt": (200, "http://a.com/robots.txt", ""),
            "http://a.com/1": (200, "http://a.com/1", "<html><body>one</body></html>"),
            "http://a.com/2": (200, "http://a.com/2", "<html><body>two</body></html>"),
        }
        fetcher, transport, clock = make_fetcher(responses, delay=1.0)
        fetcher.fetch("http://a.com/1")
        fetcher.fetch("http://a.com/2")
        times = [t for _, t in transport.calls]
        assert len(times) == 3  # robots + two pages
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= 1.0 - 1e-9

    def test_robots_disallow_blocks_page_request(self):
        responses = {
            "http://a.com/robots.txt": (200, "http://a.com/robots.txt",
                                        "User-agent: *\nDisallow: /private\n"),
        }
        fetcher, transport, _ = make_fetcher(responses)
        with pytest.raises(FetchFailure) as err:
            fetcher.fetch("http://a.com/private/page")
        assert err.value.category == "robots"
        assert [u for u, _ in transport.calls] == ["http://a.com/robots.txt"]

    def test_robots_cached_per_domain(self):
        responses = {
            "http://a.com/robots.txt": (200, "http://a.com/robots.txt", ""),
            "http://a.com/1": (200, "http://a.com/1", "<html></html>"),
            "http://a.com/2": (200, "http://a.com/2", "<html></html>"),
        }
        fetcher, transport, _ = make_fetcher(responses)
        fetcher.fetch("http://a.com/1")
        fetcher.fetch("http://a.com/2")
        robots_calls = [u for u, _ in transport.calls if u.endswith("robots.txt")]
        assert len(robots_calls) == 1

    @pytest.mark.parametrize("robots", [(500, "http://a.com/robots.txt", ""),
                                        (503, "http://a.com/robots.txt", "Allow: /"),
                                        None],
                             ids=["500", "503", "network-failure"])
    def test_unreachable_robots_disallows_domain(self, robots):
        # RFC 9309 2.3.1.4: a 5xx answer or no answer means complete disallow.
        responses = {"http://a.com/1": (200, "http://a.com/1", "<html></html>"),
                     "http://a.com/2": (200, "http://a.com/2", "<html></html>"),
                     "http://b.com/1": (200, "http://b.com/1", "<html></html>"),
                     "http://b.com/robots.txt": (200, "http://b.com/robots.txt", "")}
        if robots is not None:
            responses["http://a.com/robots.txt"] = robots
        fetcher, transport, _ = make_fetcher(responses)
        for url in ("http://a.com/1", "http://a.com/2"):
            with pytest.raises(FetchFailure) as err:
                fetcher.fetch(url)
            assert err.value.category == "robots"
        fetcher.fetch("http://b.com/1")
        assert [u for u, _ in transport.calls] == [
            "http://a.com/robots.txt", "http://b.com/robots.txt", "http://b.com/1"]

    @pytest.mark.parametrize("status, body", [(404, ""), (200, "User-agent: *\nAllow: /\n")],
                             ids=["404", "200"])
    def test_available_or_missing_robots_allows(self, status, body):
        # RFC 9309 2.3.1.3: a 4xx answer means no rules apply.
        responses = {"http://a.com/robots.txt": (status, "http://a.com/robots.txt", body),
                     "http://a.com/1": (200, "http://a.com/1", "<html><title>one</title></html>"),
                     "http://a.com/2": (200, "http://a.com/2", "<html></html>")}
        fetcher, transport, _ = make_fetcher(responses)
        assert fetcher.fetch("http://a.com/1").title == "one"
        fetcher.fetch("http://a.com/2")
        assert [u for u, _ in transport.calls] == [
            "http://a.com/robots.txt", "http://a.com/1", "http://a.com/2"]

    def test_http_error_category(self):
        responses = {
            "http://a.com/robots.txt": (404, "http://a.com/robots.txt", ""),
            "http://a.com/missing": (404, "http://a.com/missing", ""),
        }
        fetcher, _, _ = make_fetcher(responses)
        with pytest.raises(FetchFailure) as err:
            fetcher.fetch("http://a.com/missing")
        assert err.value.category == "http"

    def test_robots_toggle_off(self):
        responses = {
            "http://a.com/private": (200, "http://a.com/private", "<html></html>"),
        }
        fetcher, transport, _ = make_fetcher(responses, obey_robots=False)
        fetcher.fetch("http://a.com/private")
        assert [u for u, _ in transport.calls] == ["http://a.com/private"]

    def test_link_with_bad_port_skipped(self):
        html = ('<html><body><a href="http://a.com:99999/x">bad port</a>'
                '<a href="/ok">ok</a></body></html>')
        responses = {
            "http://a.com/robots.txt": (200, "http://a.com/robots.txt", ""),
            "http://a.com/page": (200, "http://a.com/page", html),
        }
        fetcher, _, _ = make_fetcher(responses)
        page = fetcher.fetch("http://a.com/page")
        assert page.outlinks == [("http://a.com/ok", "ok")]

    def test_broken_ipv6_links_skipped(self):
        html = ('<html><body><a href="http://[::1">open bracket</a>'
                '<a href="//[bad/x">bad host</a><a href="http://[::1]/x">loopback</a>'
                '<a href="/ok">ok</a></body></html>')
        responses = {
            "http://a.com/robots.txt": (200, "http://a.com/robots.txt", ""),
            "http://a.com/page": (200, "http://a.com/page", html),
            "http://[::1]/robots.txt": (200, "http://[::1]/robots.txt", ""),
            "http://[::1]/x": (200, "http://[::1]/x", "<html><body>local</body></html>"),
        }
        fetcher, _, _ = make_fetcher(responses)
        page = fetcher.fetch("http://a.com/page")
        assert page.outlinks == [("http://[::1]/x", "loopback"), ("http://a.com/ok", "ok")]
        assert fetcher.fetch("http://[::1]/x").body_text == "local"

    def test_unknown_charset_decoded_as_utf8(self, monkeypatch):
        class Response:
            status = 200
            headers = email.message.Message()
            headers["Content-Type"] = "text/html; charset=bogus"

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self, size=-1):
                return "<p>caf\u00e9</p>".encode("utf-8") + b"\xff"

            def geturl(self):
                return "http://a.com/final"

        class Opener:
            def open(self, request, timeout):
                return Response()

        monkeypatch.setattr(urllib.request, "build_opener", lambda *handlers: Opener())
        status, final_url, text = urllib_transport("http://a.com/", 5.0, "ua")
        assert (status, final_url, text) == (200, "http://a.com/final", "<p>caf\u00e9</p>\ufffd")

    def test_body_read_capped(self, monkeypatch):
        body = b"<p>" + b"x" * MAX_BODY_BYTES + b"</p>"
        reads = []

        class Response:
            status = 200
            headers = email.message.Message()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self, size=-1):
                reads.append(size)
                return body if size < 0 else body[:size]

            def geturl(self):
                return "http://a.com/"

        class Opener:
            def open(self, request, timeout):
                return Response()

        monkeypatch.setattr(urllib.request, "build_opener", lambda *handlers: Opener())
        _, _, text = urllib_transport("http://a.com/", 5.0, "ua")
        assert reads == [MAX_BODY_BYTES]
        assert text == body[:MAX_BODY_BYTES].decode("ascii")

    def test_import_leaves_http_stack_unloaded(self):
        code = ("import sys, treecrawl, treecrawl.cli; "
                "print(sorted({'urllib.request', 'ssl'} & set(sys.modules)))")
        src = os.path.dirname(os.path.dirname(treecrawl.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            FetchFailure("weird", "nope")


class TestSimFetcher:
    def test_lookup_matches_generated_page(self):
        world = generate_sim_world(SimWorldParams(pages=100, domains=8), seed=3)
        fetcher = SimFetcher(world)
        url = world.order[17]
        page = fetcher.fetch(url)
        stored = world.pages[url]
        assert page.title == stored.title
        assert page.body_text == stored.body
        assert page.outlinks == stored.outlinks

    def test_outlinks_match_regenerated_world(self):
        params = SimWorldParams(pages=100, domains=8)
        a = generate_sim_world(params, seed=9)
        b = generate_sim_world(params, seed=9)
        fetcher = SimFetcher(a)
        for url in a.order[:20]:
            assert fetcher.fetch(url).outlinks == b.pages[url].outlinks

    def test_missing_page(self):
        world = generate_sim_world(SimWorldParams(pages=50, domains=5), seed=1)
        with pytest.raises(FetchFailure) as err:
            SimFetcher(world).fetch("http://t000.sim/does-not-exist")
        assert err.value.category == "missing"

    def test_other_spelling_fetches_the_normalized_page(self):
        world = generate_sim_world(SimWorldParams(pages=50, domains=5), seed=1)
        url = world.order[2]
        host, path = url.removeprefix("http://").split("/", 1)
        page = SimFetcher(world).fetch(f"HTTP://{host.upper()}:80/{path}/#top")
        assert page.url == page.final_url == url
        assert page.body_text == world.pages[url].body
        with pytest.raises(FetchFailure) as err:
            SimFetcher(world).fetch(f"HTTP://{host.upper()}/{path}x/")
        assert err.value.category == "missing"

    def test_body_tokens_equal_tokenized_body(self, tmp_path):
        generated = generate_sim_world(SimWorldParams(pages=100, domains=8), seed=3)
        odd = make_world([("http://x.sim/a", True, "t", "Hello, a-b \u0130 \u212a  end", []),
                          ("http://x.sim/b", False, "t", "", []),
                          ("http://x.sim/c", False, "t", " Hello,  a-b ", [])])
        path = tmp_path / "world.jsonl"
        save_world(odd, path)
        loaded = load_world(path)
        for world in (generated, loaded):
            fetcher = SimFetcher(world)
            for url, stored in world.pages.items():
                page = fetcher.fetch(url)
                assert page.body_tokens() == tokenize(stored.body) == tokenize(page.body_text)
        assert SimFetcher(loaded).fetch("http://x.sim/a").body_tokens() == [
            "hello", "a", "b", "i", "k", "end"]
