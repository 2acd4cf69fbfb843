"""URI parsing for the hierarchical document model."""

import random
from urllib.parse import parse_qs, unquote, urlparse

import pytest

from repro.common.errors import ConfigurationError
from repro.espresso import parse_uri
from repro.espresso.uri import EspressoUri, parse_index_query


def test_singleton_resource():
    uri = parse_uri("/Music/Artist/Rolling_Stones")
    assert uri.database == "Music"
    assert uri.table == "Artist"
    assert uri.resource_id == "Rolling_Stones"
    assert uri.key == ("Rolling_Stones",)
    assert uri.is_collection


def test_subresources():
    uri = parse_uri("/Music/Song/Etta_James/Gold/At_Last")
    assert uri.key == ("Etta_James", "Gold", "At_Last")
    assert not uri.is_collection


def test_collection_uri():
    uri = parse_uri("/Music/Song/The_Beatles")
    assert uri.is_collection
    assert uri.resource_id == "The_Beatles"


def test_query_parameter():
    uri = parse_uri('/Music/Song/The_Beatles?query=lyrics:"Lucy in the sky"')
    assert uri.query == 'lyrics:"Lucy in the sky"'


def test_full_url_accepted():
    uri = parse_uri("http://host:1234/Music/Artist/Cher")
    assert uri.database == "Music"
    assert uri.resource_id == "Cher"


def test_percent_decoding():
    uri = parse_uri("/Music/Artist/Guns%20N%20Roses")
    assert uri.resource_id == "Guns N Roses"


def test_wildcard_table_is_transactional():
    assert parse_uri("/Music/*/Akon").is_transactional


def test_too_short_rejected():
    with pytest.raises(ConfigurationError):
        parse_uri("/Music")
    with pytest.raises(ConfigurationError):
        parse_uri("relative/path")


def test_key_requires_resource():
    uri = parse_uri("/Music/Artist")
    with pytest.raises(ConfigurationError):
        uri.key


def test_parse_index_query():
    assert parse_index_query("year:2004") == ("year", "2004")
    assert parse_index_query('lyrics:"Lucy in the sky"') == ("lyrics",
                                                             "Lucy in the sky")
    with pytest.raises(ConfigurationError):
        parse_index_query("no-colon")
    with pytest.raises(ConfigurationError):
        parse_index_query("field:")


# -- the split against the urllib parser it replaced -------------------------


def reference_parse_uri(uri: str) -> EspressoUri:
    """``parse_uri`` as it was, on urllib's general URL parser."""
    parsed = urlparse(uri)
    path = parsed.path
    if not path.startswith("/"):
        raise ConfigurationError(f"Espresso URIs are absolute paths: {uri!r}")
    parts = [unquote(p) for p in path.strip("/").split("/") if p]
    if len(parts) < 2:
        raise ConfigurationError(
            f"URI needs at least /<database>/<table>: {uri!r}")
    database, table = parts[0], parts[1]
    resource_id = parts[2] if len(parts) > 2 else None
    subresources = tuple(parts[3:])
    query = None
    if parsed.query:
        params = parse_qs(parsed.query)
        if "query" in params:
            query = params["query"][0]
    return EspressoUri(database, table, resource_id, subresources, query)


def outcome(parse, uri: str):
    """What ``parse`` makes of ``uri``: the value, or the error's type
    and message."""
    try:
        return parse(uri)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


SEGMENT_PIECES = ("Music", "Album", "Cher", "m00012", "0003", "*", "a_b",
                  "x-y", "v1.2", "~t", "a+b", "q@r", "k:v", "%20", "%2F",
                  "%C3%A9", "%zz", "%", "%4", "caf\u00e9", "=", "&")
PREFIXES = ("", "", "", "http://host", "https://host:8443",
            "http://user@host:1", "espresso://router.local:12918", "s3://b")
QUERIES = ("", "?", "?query=folder:inbox", '?query=lyrics:"Lucy+in+the+sky"',
           "?query=a&query=b", "?query=", "?other=1", "?query=%22x%22%20y",
           "?other=1&query=z&x", "?=&&", "?query=a?b")
FRAGMENTS = ("", "", "#", "#frag", "#a?query=x", "#/x/y")


def uri_corpus(seed: int, count: int) -> list[str]:
    """Seeded URIs in every shape the split handles: an optional
    ``scheme://authority``, ``%``-escapes, empty segments, too few
    segments, relative paths, empty or repeated queries and fragments."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        segments = ["".join(rng.choice(SEGMENT_PIECES)
                            for _ in range(rng.randint(0, 3)))
                    for _ in range(rng.randint(0, 6))]
        path = "/".join(segments)
        if rng.random() < 0.2:
            path += "/"
        prefix = rng.choice(PREFIXES)
        shape = rng.random()
        if shape < 0.75:
            path = "/" + path
        elif shape < 0.85 and not prefix:
            path = path.replace(":", "")    # relative: no scheme to find
        if not prefix and path.startswith("//"):
            path = "/x" + path      # a leading // is its own class
        corpus.append(prefix + path + rng.choice(QUERIES)
                      + rng.choice(FRAGMENTS))
    return corpus


@pytest.mark.parametrize("seed", range(4))
def test_the_split_matches_urlparse_on_the_corpus(seed):
    corpus = uri_corpus(seed, 2_000)
    accepted = 0
    for uri in corpus:
        expected = outcome(reference_parse_uri, uri)
        assert outcome(parse_uri, uri) == expected, uri
        accepted += isinstance(expected, EspressoUri)
    # both outcomes are well represented
    assert len(corpus) // 4 < accepted < len(corpus) * 3 // 4


@pytest.mark.parametrize("uri, expected", [
    # ';' is part of a segment, not the last segment's params
    ("/Music/Album/Cher;v=1", EspressoUri("Music", "Album", "Cher;v=1")),
    # nothing is stripped: leading space and embedded tabs stay
    (" /Music/Album/Cher", ConfigurationError),
    ("/Music/Al\tbum/Cher", EspressoUri("Music", "Al\tbum", "Cher")),
    # a leading // is an empty segment, not an authority
    ("//Music/Album/Cher", EspressoUri("Music", "Album", "Cher")),
    # a scheme needs ://, and what precedes :// is not checked as one
    ("http:/Music/Album/Cher", ConfigurationError),
    ("a b://host/Music/Album", EspressoUri("Music", "Album")),
    # the authority is not parsed, so it cannot be malformed
    ("http://[host/Music/Album/Cher", EspressoUri("Music", "Album", "Cher")),
], ids=["params", "leading-space", "tab", "leading-slashes",
        "scheme-without-authority", "invalid-scheme", "bad-authority"])
def test_where_the_split_and_urlparse_differ_the_split_is_pinned(uri,
                                                                  expected):
    got = outcome(parse_uri, uri)
    if expected is ConfigurationError:
        assert got[0] is ConfigurationError
    else:
        assert got == expected
    assert outcome(reference_parse_uri, uri) != got
