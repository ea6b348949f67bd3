import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from waysample.surt import (
    _HOST_RE,
    _PLAIN_URL_RE,
    CanonicalUrl,
    MalformedSurtError,
    SurtError,
    SurtKey,
    UrlConversionError,
    _parse_url_split,
    parse_host,
    parse_surt,
    parse_url,
    strip_www_prefix,
    surt_text_for_url,
    surt_to_url,
    url_to_surt,
)

from conftest import random_url

# a URL prefix and a rest over an alphabet of the characters urlsplit treats specially
URL_PREFIXES = st.sampled_from(["http://", "https://", "http://www."] * 2
                               + ["HTTPS://", "Http://", " http://", "ftp://", "http:/", ""])
URL_RESTS = st.lists(st.one_of(st.text("abcXYZ.09", min_size=1, max_size=5),
                               st.sampled_from(list(":/?#@[]%* \t\n\x00\x7f\u00e9\uff21"))),
                     max_size=8).map("".join)
# a host over an alphabet of the characters the host rule refuses, and what may follow it
HOSTS = st.lists(st.one_of(st.text("ab9,)* \u00a0", max_size=3),
                           st.sampled_from(["www", "www2", "com"])),
                 min_size=1, max_size=4).map(".".join)
HOST_RESTS = st.sampled_from(["", "/", "/x", ":80/y", "?q", "#f"])


class TestGoldenConversions:
    def test_basic_page(self):
        assert surt_text_for_url("https://example.com/page") == "com,example)/page"

    def test_scheme_and_www_invariance(self):
        assert surt_text_for_url("http://example.com/") == "com,example)/"
        assert surt_text_for_url("https://www.example.com/") == "com,example)/"

    def test_multi_label_tld(self):
        assert (surt_text_for_url("https://city-sat.asia/thread28004.html")
                == "asia,city-sat)/thread28004.html")

    def test_surt_to_url(self):
        assert surt_to_url("com,example)/page", "https").text == "https://example.com/page"
        assert surt_to_url("jp,co,daily)/").text == "https://daily.co.jp/"

    def test_raw_url_stored_as_key_is_malformed(self):
        with pytest.raises(MalformedSurtError):
            surt_to_url("amazon.com/review/rs8o6bnbx9o5k")

    def test_port_dropped(self):
        assert (surt_text_for_url("http://1st-international.com:80/profiles/16/x.htm")
                == "com,1st-international)/profiles/16/x.htm")

    def test_percent_encoding_preserved(self):
        key = surt_text_for_url("https://reddit.com/r/a/cient%c3%adficos_chubutensesi")
        assert key == "com,reddit)/r/a/cient%c3%adficos_chubutensesi"

    def test_query_preserved_in_input_order(self):
        assert (surt_text_for_url("https://a.example/x?b=2&a=1")
                == "example,a)/x?b=2&a=1")

    def test_empty_path_normalizes_to_root(self):
        assert parse_surt("com,example)").path == "/"
        assert parse_surt("com,example)").text == "com,example)/"


class TestStripWwwPrefix:
    def test_numbered_www_with_two_dots(self):
        assert strip_www_prefix("www4.daily.co.jp") == "daily.co.jp"

    def test_single_dot_host_unchanged(self):
        assert strip_www_prefix("www3288.com") == "www3288.com"
        assert strip_www_prefix("www1355544.com") == "www1355544.com"

    def test_canonical_www(self):
        assert strip_www_prefix("www.example.com") == "example.com"

    def test_never_empties(self, rng):
        from conftest import random_host
        for _ in range(2000):
            host = random_host(rng)
            assert strip_www_prefix(host)
            if host.count(".") < 2:
                assert strip_www_prefix(host) == host


class TestParseUrl:
    def test_wildcard_host_rejected(self):
        with pytest.raises(SurtError):
            parse_url("https://*/robots.txt")

    def test_missing_host_rejected(self):
        with pytest.raises(SurtError):
            parse_url("https:///?dn=renunciationguide.com&flrdr=yes&nxte=css")

    def test_non_web_scheme_rejected(self):
        with pytest.raises(UrlConversionError):
            parse_url("ftp://example.com/file")

    @pytest.mark.parametrize("url", ["http://a.com/\udcff", "http://a\udcff.com/",
                                     "https://a.com/?q=\ud800", "HTTP://a.com/\udc80"])
    def test_url_that_does_not_encode_as_utf8_rejected(self, url):
        # what a line holding a byte that is not UTF-8 reads back as
        with pytest.raises(UrlConversionError, match="unparseable"):
            parse_url(url)

    def test_fragment_dropped(self):
        assert parse_url("https://example.com/a#frag").text == "https://example.com/a"

    @settings(max_examples=1000)
    @given(URL_PREFIXES, URL_RESTS)
    def test_matches_urlsplit_path(self, prefix, rest):
        def outcome(parse, url):
            try:
                return parse(url)
            except SurtError as exc:
                return type(exc), str(exc)
        url = prefix + rest
        assert outcome(parse_url, url) == outcome(_parse_url_split, url)


class TestFastPath:
    # the plain-URL pattern before its classes were written as positive ASCII
    # ranges and its host as labels; with _HOST_RE on its host, the oracle
    OLD_PLAIN_URL_RE = re.compile(
        r"(https?)://([^\x00-\x1f\x7f-\U0010ffff/?#@\[\]%:]+)"
        r"(?::[^\x00-\x1f\x7f-\U0010ffff/?#@\[\]%]*)?"
        r"((?:[/?#][^\x00-\x1f\x7f-\U0010ffff]*)?)")

    def test_regex_matches_old_pattern_with_host_rule(self):
        for cp in [*range(0x300), 0xfeff, 0x1f600, 0xe0041, 0x10ffff]:
            c = chr(cp)
            for url in (f"http://a{c}b.com/", f"https://{c}.com", f"http://a.com:8{c}0/x",
                        f"http://a.com/p{c}q", f"http://a.com?{c}#{c}"):
                old = self.OLD_PLAIN_URL_RE.fullmatch(url)
                expected = old.groups() if old and _HOST_RE.fullmatch(old[2]) else None
                new = _PLAIN_URL_RE.fullmatch(url)
                assert (new.groups() if new else None) == expected, (hex(cp), url)

    @settings(max_examples=1000)
    @given(st.one_of(st.builds(str.__add__, URL_PREFIXES, URL_RESTS),
                     st.builds("{}{}{}".format, st.sampled_from(["http://", "https://"]),
                               HOSTS, HOST_RESTS)))
    def test_trusted_construction_equals_validated(self, url):
        try:
            parsed = parse_url(url)
        except SurtError:
            return
        validated = CanonicalUrl(parsed.scheme, parsed.host, parsed.path, parsed.query)
        assert type(parsed) is CanonicalUrl
        assert parsed == validated and hash(parsed) == hash(validated)
        with pytest.raises(AttributeError):
            parsed.host = "example.com"
        with pytest.raises(AttributeError):
            parsed.port = 80

    @settings(max_examples=1000)
    @given(st.one_of(st.builds(str.__add__, URL_PREFIXES, URL_RESTS),
                     st.builds("{}{}{}".format, st.sampled_from(["http://", "https://"]),
                               HOSTS, HOST_RESTS)))
    def test_parse_host_is_the_parsed_host(self, url):
        try:
            expected = parse_url(url).host
        except SurtError as exc:
            with pytest.raises(type(exc)):
                parse_host(url)
        else:
            assert parse_host(url) == expected


class TestHostRule:
    @settings(max_examples=1000)
    @given(st.sampled_from(["http://", "https://"]), HOSTS, HOST_RESTS)
    def test_parses_exactly_when_it_has_a_surt_key(self, scheme, host, rest):
        def ok(fn, url):
            try:
                fn(url)
            except SurtError:
                return False
            return True
        url = scheme + host + rest
        assert ok(parse_url, url) == ok(surt_text_for_url, url)

    @pytest.mark.parametrize("host", ["a..com", "a,b.com", "c.com.", ".c.com", "a)b.com",
                                      "a*.com", "a b.com", "a\u00a0b.com"])
    def test_host_without_surt_key_rejected(self, host):
        with pytest.raises(UrlConversionError, match="invalid host"):
            parse_url(f"http://{host}/x")


class TestProperties:
    def test_round_trip(self, rng):
        for _ in range(2000):
            key = url_to_surt(parse_url(random_url(rng)))
            for scheme in ("http", "https"):
                assert url_to_surt(surt_to_url(key, scheme)) == key
            assert parse_surt(key.text) == key

    def test_scheme_invariance(self, rng):
        for _ in range(1000):
            url = random_url(rng)
            bare = url.split("://", 1)[1]
            assert surt_text_for_url(f"http://{bare}") == surt_text_for_url(f"https://{bare}")

    def test_stacked_www_prefixes_canonicalize(self):
        assert surt_text_for_url("https://www.www.example.com/") == "com,example)/"

    def test_sorted_keys_group_registered_domains_contiguously(self, rng):
        keys = []
        for _ in range(500):
            keys.append(url_to_surt(parse_url(random_url(rng, allow_www=False))))
        texts = sorted(k.text for k in keys)
        groups = [parse_surt(t).host_segments[:2] for t in texts]
        seen = set()
        previous = None
        for group in groups:
            if group != previous:
                assert group not in seen, f"domain group {group} not contiguous"
                seen.add(group)
            previous = group


class TestValidation:
    def test_canonical_url_requires_leading_slash(self):
        with pytest.raises(UrlConversionError):
            CanonicalUrl("https", "example.com", "page")

    def test_replace_validates(self):
        url = parse_url("http://example.com/")
        assert url._replace(path="/x") == CanonicalUrl("http", "example.com", "/x")
        with pytest.raises(UrlConversionError, match="invalid host"):
            url._replace(host="a..com")

    def test_surt_key_fields_are_read_only(self):
        key = parse_surt("com,example)/a?b=1")
        with pytest.raises(AttributeError):
            key.path = "/"
        with pytest.raises(MalformedSurtError):
            key._replace(path="a")

    def test_bad_surt_label(self):
        with pytest.raises(MalformedSurtError):
            parse_surt("com,,example)/")

    @pytest.mark.parametrize("key", ["com,exa.mple)/", "com,*)/", "com,Example)/", "com, a)/",
                                     "com,a\u00a0)/", ")/"])
    def test_surt_label_follows_the_host_rule(self, key):
        # exa.mple would come back from https://exa.mple.com/ as com,mple,exa
        with pytest.raises(MalformedSurtError):
            parse_surt(key)

    @settings(max_examples=1000)
    @given(st.builds(str.__add__, st.text("ab9.,*) A\u00a0\u00e9", max_size=8),
                     st.sampled_from([")/", ")", ")/x?q=1", ")x", ""])))
    def test_every_parsed_key_converts_back(self, key):
        try:
            surt = parse_surt(key)
        except MalformedSurtError:
            return
        assert surt_to_url(surt).host.split(".")[::-1] == list(surt.host_segments)

    @settings(max_examples=1000)
    @given(st.one_of(st.builds(str.__add__, URL_PREFIXES, URL_RESTS),
                     st.builds("{}{}{}".format, st.sampled_from(["http://", "https://"]),
                               HOSTS, HOST_RESTS)))
    def test_url_to_surt_equals_the_checked_key(self, url):
        try:
            key = url_to_surt(parse_url(url))
        except SurtError:
            return
        assert type(key) is SurtKey and key == SurtKey(*key)

    def test_host_in_upper_case_has_no_surt_key(self):
        with pytest.raises(MalformedSurtError):
            url_to_surt(CanonicalUrl("http", "Example.com"))
