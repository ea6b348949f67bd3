"""URL classification and filtering predicates.

Validity, likely-HTML extension heuristics, session-ID aliases, index-file
aliases and trailing-asterisk wildcards. All predicates are stateless and
safe to run over URL streams in parallel.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from .surt import CanonicalUrl, SurtError, parse_url


class Heuristic(enum.Enum):
    """The extension heuristics used to flag likely HTML pages."""

    TrailingSlashNoExt = "trailing-slash-no-ext"
    Do = ".do"
    PhpN = ".php[0-9]"
    Aspx = ".aspx"
    Cgi = ".cgi"
    Pl = ".pl"
    Asp = ".asp"
    Jsp = ".jsp"
    Cfm = ".cfm"
    XHtmlFamily = ".[a-z]html"
    Htm = ".htm"


# explicit extensions first; trailing-slash/no-extension is the fallback row.
# Each is anchored at the end and holds no dot, so only the segment's last
# dot can start a match and no segment matches two of them: one search of
# their alternation finds the one that matches, its group naming it.
_EXTENSIONS: list[tuple[Heuristic, str]] = [
    (Heuristic.Do, r"do"), (Heuristic.PhpN, r"php[0-9]?"), (Heuristic.Aspx, r"aspx"),
    (Heuristic.Cgi, r"cgi"), (Heuristic.Pl, r"pl"), (Heuristic.Asp, r"asp"),
    (Heuristic.Jsp, r"jsp"), (Heuristic.Cfm, r"cfm"), (Heuristic.XHtmlFamily, r"[a-z]?html"),
    (Heuristic.Htm, r"htm"),
]
_EXTENSION_RE = re.compile(
    r"\.(?:%s)$" % "|".join(f"({pattern})" for _, pattern in _EXTENSIONS), re.I)

# session-ID tokens, matched case-insensitively against the full URL text
# so both query-string and path-parameter placements are caught
_SESSION_TOKENS = [
    r"jsessionid=[0-9a-zA-Z]{32}",
    r"phpsessid=[0-9a-zA-Z]{32}",
    r"sid=[0-9a-zA-Z]{32}",
    r"ASPSESSIONID[a-zA-Z]{8}=[a-zA-Z]{24}",
    r"cfid=[^&]+&cftoken=[^&]+",
]
_SESSION_PATTERNS = [re.compile(rf"^(.*)(?:{t})(?:&(.*))?$", re.I) for t in _SESSION_TOKENS]
# a session pattern matches only where its token occurs, so one search for any
# token rules all of them out without their backtracking over the whole URL;
# every token starts with a letter, and the lookahead on those first letters
# lets the search skip the positions where none can start
_SESSION_TOKEN_RE = re.compile(
    "(?=[%s])(?:%s)" % ("".join(t[0] for t in _SESSION_TOKENS), "|".join(_SESSION_TOKENS)),
    re.I)

_INDEX_ALIAS_RE = re.compile(r"^index\.[a-zA-Z]+$")


class FilterVerdict(NamedTuple):
    url: str
    valid: bool
    likely_html: Heuristic | None
    session_alias: bool
    index_alias: bool
    wildcard: bool

    def to_tsv_line(self) -> str:
        heuristic = self.likely_html.value if self.likely_html else "-"
        flags = (("s" if self.session_alias else "-") + ("i" if self.index_alias else "-")
                 + ("w" if self.wildcard else "-"))
        return f"{self.url}\t{int(self.valid)}\t{heuristic}\t{flags}"


def is_valid_url(url: str) -> bool:
    """True iff the URL parses, which is iff it has a SURT key: an http(s)
    URL whose host is dot-separated labels, none empty and none holding
    ``,``, ``)``, ``*`` or whitespace."""
    try:
        parse_url(url)
    except SurtError:
        return False
    return True


def _last_path_segment(url: CanonicalUrl) -> str:
    return url.path.rsplit("/", 1)[-1]


def classify_likely_html(url: CanonicalUrl) -> Heuristic | None:
    """Match the last path segment (query ignored) against the extension
    heuristics; None for any other extension (.jpg, .js, .gif, ...)."""
    return _likely_html(_last_path_segment(url))


def _likely_html(segment: str) -> Heuristic | None:
    if segment == "" or "." not in segment:
        return Heuristic.TrailingSlashNoExt
    m = _EXTENSION_RE.search(segment)
    return _EXTENSIONS[m.lastindex - 1][0] if m else None


def detect_session_alias(url: str) -> tuple[bool, str]:
    """Detect a session-ID token anywhere in the URL.

    Returns (matched, stripped) where stripped removes the token and any
    dangling ``?``/``&``/``;`` separators; idempotent by construction.
    """
    if not _SESSION_TOKEN_RE.search(url):
        return False, url
    for pattern in _SESSION_PATTERNS:
        m = pattern.match(url)
        if m:
            before, after = m.group(1), m.group(2)
            if after:
                stripped = before + after
            else:
                stripped = before.rstrip("&;?")
            return True, stripped
    return False, url


def detect_index_alias(url: CanonicalUrl) -> bool:
    """True iff the final path segment is ``index.`` plus one or more letters."""
    return bool(_INDEX_ALIAS_RE.match(_last_path_segment(url)))


def detect_wildcard(url: str) -> bool:
    """True iff the URL's last character is a literal (unencoded) asterisk."""
    return url.endswith("*")


def verdict(url: str) -> FilterVerdict:
    """Full classification of one raw URL string."""
    session_alias, _ = detect_session_alias(url)
    wildcard = detect_wildcard(url)
    try:
        canonical = parse_url(url)
    except SurtError:
        return FilterVerdict(url, False, None, session_alias, False, wildcard)
    segment = _last_path_segment(canonical)
    return FilterVerdict(
        url=url,
        valid=True,
        likely_html=_likely_html(segment),
        session_alias=session_alias,
        index_alias=bool(_INDEX_ALIAS_RE.match(segment)),
        wildcard=wildcard,
    )
