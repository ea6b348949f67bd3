import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from waysample import urlfilter
from waysample.surt import CanonicalUrl, parse_url
from waysample.urlfilter import (
    Heuristic,
    classify_likely_html,
    detect_index_alias,
    detect_session_alias,
    detect_wildcard,
    is_valid_url,
    trim_to_root,
    verdict,
)

from conftest import random_url

HEURISTIC_EXAMPLES = [
    ("https://www.youtube.com/", Heuristic.TrailingSlashNoExt),
    ("http://example.com/register.do", Heuristic.Do),
    ("https://notiche.com.ar/index.php", Heuristic.PhpN),
    ("https://cigaroasis.asia/contact.aspx", Heuristic.Aspx),
    ("https://0009.ir/cgi-sys/suspendedpage.cgi", Heuristic.Cgi),
    ("https://007thunderballpoker.com/11-5g-suited-poker-chip/pai-gow-poker-rules.pl",
     Heuristic.Pl),
    ("https://0000028.cnelc.com/productshop/newpro.asp", Heuristic.Asp),
    ("https://006bai.net/404.jsp", Heuristic.Jsp),
    ("https://001ok.com/adventure_nz.cfm?nft=1&p=4&t=4", Heuristic.Cfm),
    ("https://city-sat.asia/thread28004.html", Heuristic.XHtmlFamily),
    ("http://1st-international.com:80/profiles/16/PersonalBO893.htm", Heuristic.Htm),
]

NON_HTML_EXAMPLES = [
    "https://brs53.dx.am/scripts/jquery.min.js",
    "https://174.127.81.0/t/87/73/25/1-320x240.jpg",
    "https://mf.ag/2121_de.gif?exp=24559886473100",
]


class TestValidity:
    def test_missing_domain_invalid(self):
        assert not is_valid_url("https:///?dn=renunciationguide.com&flrdr=yes&nxte=css")

    def test_wildcard_host_invalid(self):
        assert not is_valid_url("https://*/robots.txt")

    def test_normal_url_valid(self):
        assert is_valid_url("https://notiche.com.ar/index.php?limitstart=42")

    def test_garbage_invalid(self):
        assert not is_valid_url("not a url at all")


class TestLikelyHtml:
    @pytest.mark.parametrize("url,expected", HEURISTIC_EXAMPLES)
    def test_heuristic_rows(self, url, expected):
        assert classify_likely_html(parse_url(url)) is expected

    @pytest.mark.parametrize("url", NON_HTML_EXAMPLES)
    def test_non_html_extensions_absent(self, url):
        assert classify_likely_html(parse_url(url)) is None

    def test_php_versions(self):
        base = "https://0001ktr.co.kr/bbs/bbs"
        assert classify_likely_html(parse_url(base + ".php3?bbs_mode=list_form")) is Heuristic.PhpN
        assert classify_likely_html(parse_url(base + ".php")) is Heuristic.PhpN
        assert classify_likely_html(parse_url(base + ".php9")) is Heuristic.PhpN
        assert classify_likely_html(parse_url(base + ".php10")) is None

    def test_xhtml_family_variants(self):
        for ext in (".shtml", ".phtml", ".xhtml", ".khtml", ".html"):
            assert classify_likely_html(parse_url(f"https://a.com/x{ext}")) is Heuristic.XHtmlFamily

    def test_case_insensitive_extension(self):
        assert classify_likely_html(parse_url("https://a.com/INDEX.HTML")) is Heuristic.XHtmlFamily

    def test_query_ignored(self):
        assert classify_likely_html(parse_url("https://a.com/p.jpg?x=.html")) is None

    def test_no_extension_counts_as_page(self):
        assert classify_likely_html(parse_url("https://a.com/about")) is Heuristic.TrailingSlashNoExt

    @settings(max_examples=1000)
    @given(st.lists(st.one_of(
        st.sampled_from([".HTML", ".sHTML", ".php5", ".aspx", ".asp", ".htm", ".html", ".do",
                         ".pl", ".cgi", ".jsp", ".cfm", ".\u212aHTML", "\u212a", "\u017f", "\n"]),
        st.text("aphstmlx.K\u212a/", max_size=3)), max_size=6).map("".join))
    def test_matches_ten_pattern_oracle(self, tail):
        url = CanonicalUrl("http", "a.com", "/" + tail)
        assert classify_likely_html(url) is _oracle_likely_html(url)


# the ten patterns searched one after another, in heuristic-table order
_ORACLE_EXTENSION_PATTERNS = [
    (Heuristic.Do, re.compile(r"\.do$", re.I)),
    (Heuristic.PhpN, re.compile(r"\.php[0-9]?$", re.I)),
    (Heuristic.Aspx, re.compile(r"\.aspx$", re.I)),
    (Heuristic.Cgi, re.compile(r"\.cgi$", re.I)),
    (Heuristic.Pl, re.compile(r"\.pl$", re.I)),
    (Heuristic.Asp, re.compile(r"\.asp$", re.I)),
    (Heuristic.Jsp, re.compile(r"\.jsp$", re.I)),
    (Heuristic.Cfm, re.compile(r"\.cfm$", re.I)),
    (Heuristic.XHtmlFamily, re.compile(r"\.[a-z]?html$", re.I)),
    (Heuristic.Htm, re.compile(r"\.htm$", re.I)),
]


def _oracle_likely_html(url: CanonicalUrl) -> Heuristic | None:
    segment = url.path.rsplit("/", 1)[-1]
    if segment == "" or "." not in segment:
        return Heuristic.TrailingSlashNoExt
    for heuristic, pattern in _ORACLE_EXTENSION_PATTERNS:
        if pattern.search(segment):
            return heuristic
    return None


class TestSessionAlias:
    def test_jsessionid_path_parameter(self):
        matched, stripped = detect_session_alias(
            "https://clickbank.com/index.html;jsessionid=09020c463c1db67320a9e4b9f65bf619")
        assert matched
        assert stripped == "https://clickbank.com/index.html"

    def test_sid_with_following_params(self):
        matched, stripped = detect_session_alias(
            "https://example.com/?sid=0123456789abcdef0123456789abcdef&x=1")
        assert matched
        assert stripped == "https://example.com/?x=1"

    def test_phpsessid(self):
        matched, stripped = detect_session_alias(
            "https://example.com/?phpsessid=" + "a1" * 16)
        assert matched
        assert stripped == "https://example.com/"

    def test_aspsession(self):
        url = "https://example.com/p.asp?ASPSESSIONIDabcdEFGH=" + "x" * 24
        matched, stripped = detect_session_alias(url)
        assert matched
        assert stripped == "https://example.com/p.asp"

    def test_cfid_cftoken_pair(self):
        matched, stripped = detect_session_alias(
            "https://example.com/?cfid=123&cftoken=456&keep=1")
        assert matched
        assert stripped == "https://example.com/?keep=1"

    def test_no_token(self):
        assert detect_session_alias("https://example.com/page") == (False, "https://example.com/page")

    def test_short_sid_not_matched(self):
        assert detect_session_alias("https://example.com/?sid=abc")[0] is False

    def test_idempotent(self, rng):
        urls = [random_url(rng) for _ in range(500)]
        urls.append("https://clickbank.com/index.html;jsessionid=09020c463c1db67320a9e4b9f65bf619")
        for url in urls:
            _, once = detect_session_alias(url)
            _, twice = detect_session_alias(once)
            assert twice == once


# detect_session_alias before its one-search guard: the oracle for the guarded version
_ORACLE_SESSION_PATTERNS = [
    re.compile(r"^(.*)(?:jsessionid=[0-9a-zA-Z]{32})(?:&(.*))?$", re.I),
    re.compile(r"^(.*)(?:phpsessid=[0-9a-zA-Z]{32})(?:&(.*))?$", re.I),
    re.compile(r"^(.*)(?:sid=[0-9a-zA-Z]{32})(?:&(.*))?$", re.I),
    re.compile(r"^(.*)(?:ASPSESSIONID[a-zA-Z]{8}=[a-zA-Z]{24})(?:&(.*))?$", re.I),
    re.compile(r"^(.*)(?:cfid=[^&]+&cftoken=[^&]+)(?:&(.*))?$", re.I),
]


def _oracle_session_alias(url: str) -> tuple[bool, str]:
    for pattern in _ORACLE_SESSION_PATTERNS:
        m = pattern.match(url)
        if m:
            before, after = m.group(1), m.group(2)
            if after:
                stripped = before + after
            else:
                stripped = before.rstrip("&;?")
            return True, stripped
    return False, url


# a prefix, a session token and a suffix; the tokens in mixed case,
# with values of the right length and of lengths one off, drawn with the
# characters that re.I folds onto ASCII letters: U+017F (long s) onto s and
# U+212A (Kelvin sign) onto k
def _session_value(alphabet, *lengths):
    return st.sampled_from(lengths).flatmap(
        lambda n: st.text(alphabet=alphabet, min_size=n, max_size=n))


def _session_token(names, *parts):
    return st.tuples(st.sampled_from(names), *parts).map("".join)


_LETTERS = "aZsKk\u017f\u212a"
_SESSION_TOKENS = st.one_of(
    _session_token(["jsessionid=", "JSessionID=", "phpsessid=", "PHPSESSID=", "sid=", "SiD=",
                    "\u017fid="], _session_value(_LETTERS + "09", 32, 31, 33)),
    _session_token(["aspsessionid", "ASPSessionID", "a\u017fp\u017fe\u017f\u017fionid"],
                   _session_value(_LETTERS, 8, 7), st.sampled_from(["=", ""]),
                   _session_value(_LETTERS, 24, 23)),
    _session_token(["cfid=", "CFID="], _session_value(_LETTERS + "0", 1, 0, 3),
                   st.sampled_from(["&cftoken=", "&CFTO\u212aEN=", "&cftoken", "&"]),
                   _session_value(_LETTERS + "0", 1, 0, 3)),
)
_SESSION_URLS = st.tuples(
    st.lists(st.sampled_from(["https://a.com/p", "?", "&", ";", "\n", "\u017f"]),
             max_size=3).map("".join),
    _SESSION_TOKENS,
    st.sampled_from(["", "&", "&keep=1", ";"]),
).map("".join)


@settings(max_examples=1000, deadline=None)
@given(_SESSION_URLS)
def test_session_alias_matches_five_pattern_oracle(url):
    assert detect_session_alias(url) == _oracle_session_alias(url)


class TestIndexAlias:
    def test_index_asp(self):
        assert detect_index_alias(parse_url("https://abc.es/index.asp"))

    def test_root_not_alias(self):
        assert not detect_index_alias(parse_url("https://abc.es/"))

    def test_requires_dot(self):
        assert not detect_index_alias(parse_url("https://abc.es/indexing"))

    def test_deeper_path(self):
        assert detect_index_alias(parse_url("https://abc.es/dir/index.html"))

    def test_trailing_digits_not_alias(self):
        assert not detect_index_alias(parse_url("https://abc.es/index.php3"))

    def test_oracle_on_generated_paths(self, rng):
        oracle = re.compile(r"index\.[a-zA-Z]+$")
        for _ in range(1000):
            url = random_url(rng)
            canonical = parse_url(url)
            segment = canonical.path.rsplit("/", 1)[-1]
            assert detect_index_alias(canonical) == bool(oracle.fullmatch(segment))

    def test_trimmed_roots_never_aliases(self, rng):
        for _ in range(200):
            canonical = parse_url(random_url(rng))
            assert not detect_index_alias(trim_to_root(canonical))


class TestWildcard:
    def test_trailing_asterisk(self):
        assert detect_wildcard("https://mediafire.com/?8pzmr03tf9o*")

    def test_percent_encoded_not_wildcard(self):
        assert not detect_wildcard("https://example.com/%2A")

    def test_plain_url(self):
        assert not detect_wildcard("https://example.com/")


class TestTrimToRoot:
    def test_deep_link(self):
        url = parse_url("https://reddit.com/r/argentina/comments/1ruebz/x")
        assert trim_to_root(url).text == "https://reddit.com/"

    def test_already_root(self):
        url = parse_url("https://example.com/")
        assert trim_to_root(url) == url

    def test_wildcard_url_trims_to_host(self):
        url = parse_url("https://hotfrog.in/companies/hi-technical_*")
        assert trim_to_root(url).text == "https://hotfrog.in/"

    def test_idempotent_and_host_preserving(self, rng):
        for _ in range(300):
            canonical = parse_url(random_url(rng))
            trimmed = trim_to_root(canonical)
            assert trimmed.host == canonical.host
            assert trim_to_root(trimmed) == trimmed


class TestVerdict:
    def test_invalid_url_has_no_heuristic(self):
        v = verdict("https://*/robots.txt")
        assert not v.valid
        assert v.likely_html is None

    def test_tsv_shape(self):
        v = verdict("https://abc.es/index.asp")
        fields = v.to_tsv_line().split("\t")
        assert fields[0] == "https://abc.es/index.asp"
        assert fields[1] == "1"
        assert fields[2] == Heuristic.Asp.value
        assert fields[3] == "-i-"

    def test_columns_match_the_predicates_with_one_path_split(self, rng):
        split = mock.Mock(wraps=urlfilter._last_path_segment)
        with mock.patch.object(urlfilter, "_last_path_segment", split):
            for _ in range(500):
                url = random_url(rng)
                split.reset_mock()
                v = verdict(url)
                assert split.call_count == 1
                canonical = parse_url(url)
                assert (v.likely_html, v.index_alias) == (
                    classify_likely_html(canonical), detect_index_alias(canonical))
