"""URL <-> SURT key conversion.

SURT (Sort-friendly URI Reordering Transform) keys reverse the hostname
labels and comma-join them so that all keys of a registered domain sort
contiguously, e.g. ``https://example.com/page`` -> ``com,example)/page``.

Canonicalization drops the scheme, port, fragment, and any leading
``www``-class label -- but the ``www`` label is only stripped when the
hostname carries at least two dots, so single-dot hosts like
``www3288.com`` keep their identity instead of collapsing into ``com)/``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from urllib.parse import urlsplit

SCHEMES = ("http", "https")

_WWW_PREFIX_RE = re.compile(r"^www\d*\.")
# a host with a SURT key: dot-separated labels, none empty, none with , ) * or whitespace
_HOST_RE = re.compile(r"[^.,)*\s]+(?:\.[^.,)*\s]+)*")
# A lowercase http(s) URL in printable ASCII whose netloc is a host with a
# SURT key (see _HOST_RE), then optionally ':' and a port part, with no '@',
# '[', ']' or '%'. Groups: scheme, host, and the rest from the first '/', '?'
# or '#' on. Positive ASCII ranges compile in under 1 ms, classes negated up
# to U+10FFFF in over 10: a host label is printable ASCII but space # % ) * ,
# . / : ? @ [ ], a port part printable ASCII but # % / ? @ [ ].
_LABEL = r"[\x21\x22\x24\x26-\x28\x2b\x2d\x30-\x39\x3b-\x3e\x41-\x5a\x5c\x5e-\x7e]+"
_PLAIN_URL_RE = re.compile(
    rf"(https?)://({_LABEL}(?:\.{_LABEL})*)"
    r"(?::[\x20-\x22\x24\x26-\x2e\x30-\x3e\x41-\x5a\x5c\x5e-\x7e]*)?"
    r"((?:[/?#][\x20-\x7e]*)?)")


class SurtError(ValueError):
    """Base class for URL/SURT conversion failures."""


class MalformedSurtError(SurtError):
    """A SURT key that does not follow the ``labels)/path`` shape."""


class UrlConversionError(SurtError):
    """A URL that cannot be canonicalized into a SURT key."""


class CanonicalUrl(namedtuple("CanonicalUrl", "scheme host path query")):
    """A canonicalized http(s) URL: lowercase host with a SURT key, no port, no fragment.

    An immutable tuple of its four fields, which the constructor validates;
    parse_url's regex path, whose match checked them, builds it directly."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, scheme: str, host: str, path: str = "/", query: str | None = None):
        if scheme not in SCHEMES:
            raise UrlConversionError(f"unsupported scheme: {scheme!r}")
        if not _HOST_RE.fullmatch(host):
            raise UrlConversionError(f"invalid host: {host!r}")
        if not path.startswith("/"):
            raise UrlConversionError(f"path must start with '/': {path!r}")
        return tuple.__new__(cls, (scheme, host, path, query))

    @property
    def text(self) -> str:
        url = f"{self.scheme}://{self.host}{self.path}"
        if self.query is not None:
            url += f"?{self.query}"
        return url

    @property
    def is_root(self) -> bool:
        return self.path == "/" and self.query is None


class SurtKey(namedtuple("SurtKey", "host_segments path query")):
    """A SURT key: reversed host labels (a tuple), path, and optional query.
    An immutable tuple of them, which the constructor validates."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, host_segments: tuple[str, ...], path: str = "/", query: str | None = None):
        host = ".".join(host_segments)  # a host by _HOST_RE if no label holds a dot
        if (not _HOST_RE.fullmatch(host) or host.count(".") >= len(host_segments)
                or host != host.lower()):
            raise MalformedSurtError(f"bad host labels: {host_segments!r}")
        if not path.startswith("/"):
            raise MalformedSurtError(f"SURT path must start with '/': {path!r}")
        return tuple.__new__(cls, (host_segments, path, query))

    @property
    def text(self) -> str:
        key = ",".join(self.host_segments) + ")" + self.path
        if self.query is not None:
            key += f"?{self.query}"
        return key

    def __str__(self) -> str:
        return self.text


def parse_url(url: str) -> CanonicalUrl:
    """Parse and canonicalize an http(s) URL.

    Lowercases the host, drops the port and fragment, defaults an empty
    path to ``/``, and preserves the path/query percent-encoding verbatim.
    Raises UrlConversionError for anything that is not a plain web URL.

    A URL in printable ASCII that starts with lowercase ``http://`` or
    ``https://`` and whose netloc is a host with a SURT key, optionally
    followed by ``:`` and a port part, with no ``@``, ``[``, ``]`` or ``%``,
    is split by one regex match. ``urlsplit`` would strip nothing from it,
    and would cut its netloc at the first ``/``, ``?`` or ``#``, its fragment
    at the first ``#`` and its query at the next ``?``; with no userinfo,
    bracket or zone to resolve, its hostname is the netloc up to the first
    ``:``. The split below does the same, so both give the same result.

    The host rule is enforced on each path: the match itself holds it on
    this one, so the ``CanonicalUrl`` is built without validating again;
    every other string goes through ``urlsplit`` and the validating
    ``CanonicalUrl`` constructor, which rejects a host without a SURT key,
    and one that does not encode as UTF-8 is refused before that.
    """
    m = _PLAIN_URL_RE.fullmatch(url)
    if m is None:
        return _parse_url_split(url)
    scheme, host, rest = m.groups()
    path, _, query = rest.partition("#")[0].partition("?")
    return tuple.__new__(CanonicalUrl, (scheme, host.lower(), path or "/", query or None))


def _parse_url_split(url: str) -> CanonicalUrl:
    """parse_url for any string, through ``urlsplit``. A string that does not
    encode as UTF-8, such as a line read with a byte that is not UTF-8 in it,
    is no URL: it could be neither queried nor named as a file."""
    try:
        url.encode("utf-8")
        parts = urlsplit(url)
        host = parts.hostname
    except ValueError as exc:  # UnicodeEncodeError included
        raise UrlConversionError(f"unparseable URL: {url!r}") from exc
    query = parts.query if parts.query else None
    return CanonicalUrl(parts.scheme.lower(), (host or "").lower(), parts.path or "/", query)


def strip_www_prefix(host: str) -> str:
    """Drop a leading ``www`` / ``www<digits>`` label, but only when the
    host contains at least two dots.

    Single-dot hosts such as ``www3288.com`` are returned unchanged so
    distinct domains are never conflated.
    """
    if host.count(".") < 2:
        return host
    m = _WWW_PREFIX_RE.match(host)
    if m and m.end() < len(host):
        return host[m.end():]
    return host


def domain_key(host: str) -> str:
    """The Eq.-style domain key: the host with www-class prefixes stripped
    to a fixpoint, so stacked prefixes (www.www.example.com) also go."""
    while True:
        stripped = strip_www_prefix(host)
        if stripped == host:
            return host
        host = stripped


def url_to_surt(url: CanonicalUrl) -> SurtKey:
    """Convert a canonical URL into its SURT key.

    Scheme and ``www``-class prefixes (see domain_key) never affect the
    result. The host of a CanonicalUrl holds _HOST_RE, so SurtKey checks
    it again only when it is not in lower case, which SurtKey refuses.
    """
    host = domain_key(url.host)
    key = (tuple(reversed(host.split("."))), url.path, url.query)
    return tuple.__new__(SurtKey, key) if host == host.lower() else SurtKey(*key)


def parse_surt(key: str) -> SurtKey:
    """Parse the textual SURT form ``label1,label2,...)/path[?query]``."""
    idx = key.find(")")
    if idx < 0:
        raise MalformedSurtError(f"no ')' separator in SURT: {key!r}")
    host_part, rest = key[:idx], key[idx + 1:]
    if rest == "":
        rest = "/"
    if not rest.startswith("/"):
        raise MalformedSurtError(f"SURT path does not start with '/': {key!r}")
    if "?" in rest:
        path, query = rest.split("?", 1)
    else:
        path, query = rest, None
    return SurtKey(tuple(host_part.split(",")), path, query)


def surt_to_url(surt: SurtKey | str, scheme: str = "https") -> CanonicalUrl:
    """Convert a SURT key back into a URL under the given scheme.

    Inverse of url_to_surt up to scheme and www prefix.
    """
    if isinstance(surt, str):
        surt = parse_surt(surt)
    host = ".".join(reversed(surt.host_segments))
    return CanonicalUrl(scheme, host, surt.path, surt.query)


def surt_text_for_url(url: str) -> str:
    """Textual SURT key for a raw URL string."""
    return url_to_surt(parse_url(url)).text


def parse_host(url: str) -> str:
    """``parse_url(url).host``, without parsing the rest of the URL."""
    m = _PLAIN_URL_RE.fullmatch(url)
    return _parse_url_split(url).host if m is None else m[2].lower()
