import pytest

from treecrawl.urls import (DOMAIN_CACHE_SIZE, MalformedUrlError, domain_of,
                            normalize_url)


class TestNormalize:
    def test_canonical_rules(self):
        assert normalize_url("HTTP://Example.COM:80/a#frag") == "http://example.com/a"

    def test_trailing_slash(self):
        assert normalize_url("http://a.com/b/") == normalize_url("http://a.com/b")

    def test_root_slash(self):
        assert normalize_url("http://a.com/") == normalize_url("http://a.com")

    def test_default_port_only_for_matching_scheme(self):
        assert normalize_url("https://a.com:443/x") == "https://a.com/x"
        assert normalize_url("http://a.com:8080/x") == "http://a.com:8080/x"

    def test_percent_normalization(self):
        assert normalize_url("http://a.com/%7euser") == "http://a.com/~user"
        assert normalize_url("http://a.com/a%2fb") == "http://a.com/a%2Fb"

    def test_truncated_or_invalid_escape_kept(self):
        assert normalize_url("http://a.com/a%") == "http://a.com/a%"
        assert normalize_url("http://a.com/a%4") == "http://a.com/a%4"
        assert normalize_url("http://a.com/%zz") == "http://a.com/%zz"
        assert normalize_url("http://a.com/p?q=%4") == "http://a.com/p?q=%4"

    def test_query_kept_fragment_dropped(self):
        assert normalize_url("http://a.com/p?q=1&r=2#top") == "http://a.com/p?q=1&r=2"

    def test_malformed(self):
        for bad in ("", "not a url", "mailto:user@example.com", "/relative/only"):
            with pytest.raises(MalformedUrlError):
                normalize_url(bad)

    def test_idempotence_over_corpus(self):
        corpus = []
        for i in range(50):
            corpus.extend([
                f"HTTP://Site{i}.Example.COM:80/Path{i}/",
                f"https://site{i}.example.com:443/a%2fb%7E?x={i}#f",
                f"http://site{i}.example.com/p{i}",
                f"http://site{i}.example.com:90/deep/path/{i}/",
            ])
        assert len(corpus) == 200
        for raw in corpus:
            once = normalize_url(raw)
            assert normalize_url(once) == once


class TestDomain:
    def test_host_lowercased_port_stripped(self):
        assert domain_of("http://EN.Wikipedia.ORG:8080/wiki/X") == "en.wikipedia.org"

    def test_subdomains_distinct(self):
        assert domain_of("http://a.b.com/x") != domain_of("http://b.com/x")

    def test_malformed(self):
        with pytest.raises(MalformedUrlError):
            domain_of("nothing-here")

    def test_malformed_raises_on_every_call(self):
        for _ in range(3):  # an error is never cached as a result
            with pytest.raises(MalformedUrlError):
                domain_of("http:///no-host")
            with pytest.raises(MalformedUrlError):
                domain_of("http://[::1/x")

    def test_cache_is_bounded_by_a_constant(self):
        assert domain_of.cache_info().maxsize == DOMAIN_CACHE_SIZE
        before = domain_of.cache_info().hits
        assert domain_of("http://Cached.EXAMPLE:81/a") == "cached.example"
        assert domain_of("http://Cached.EXAMPLE:81/a") == "cached.example"
        assert domain_of.cache_info().hits > before
