"""Local secondary index: term and free-text postings."""

import pytest

from repro.common.errors import ConfigurationError
from repro.espresso import LocalSecondaryIndex
from repro.espresso.index import tokenize

from tests.espresso.conftest import SONG_SCHEMA, ALBUM_SCHEMA


def test_tokenize():
    assert tokenize("Lucy in the Sky, with Diamonds!") == \
        ["lucy", "in", "the", "sky", "with", "diamonds"]


def test_term_index_exact_match():
    index = LocalSecondaryIndex(ALBUM_SCHEMA)
    index.add(("Akon", "Trouble"), {"title": "Trouble", "year": 2004})
    index.add(("Akon", "Stadium"), {"title": "Stadium", "year": 2011})
    assert index.query("year", "2004") == [("Akon", "Trouble")]
    assert index.query("year", "1999") == []


def test_free_text_all_terms_must_match():
    index = LocalSecondaryIndex(SONG_SCHEMA)
    index.add(("Beatles", "SP", "Lucy"),
              {"title": "Lucy", "lyrics": "Lucy in the sky with diamonds",
               "duration": 1})
    index.add(("Beatles", "MMT", "Walrus"),
              {"title": "Walrus", "lyrics": "I am the walrus", "duration": 1})
    assert index.query("lyrics", "Lucy in the sky") == [("Beatles", "SP", "Lucy")]
    assert index.query("lyrics", "the") == [("Beatles", "MMT", "Walrus"),
                                            ("Beatles", "SP", "Lucy")]
    assert index.query("lyrics", "lucy walrus") == []


def test_resource_scoping():
    index = LocalSecondaryIndex(SONG_SCHEMA)
    index.add(("A", "x", "s1"), {"title": "s", "lyrics": "love", "duration": 1})
    index.add(("B", "y", "s2"), {"title": "s", "lyrics": "love", "duration": 1})
    assert index.query("lyrics", "love", resource_id="A") == [("A", "x", "s1")]


def test_unindexed_field_rejected():
    index = LocalSecondaryIndex(SONG_SCHEMA)
    with pytest.raises(ConfigurationError):
        index.query("duration", "1")


def test_reindex_replaces_old_terms():
    index = LocalSecondaryIndex(ALBUM_SCHEMA)
    index.add(("A", "x"), {"title": "x", "year": 2000})
    index.add(("A", "x"), {"title": "x", "year": 2001})
    assert index.query("year", "2000") == []
    assert index.query("year", "2001") == [("A", "x")]


def test_remove_clears_postings():
    index = LocalSecondaryIndex(ALBUM_SCHEMA)
    index.add(("A", "x"), {"title": "x", "year": 2000})
    index.remove(("A", "x"))
    assert index.query("year", "2000") == []
    assert index.is_empty


def test_null_fields_not_indexed():
    index = LocalSecondaryIndex(SONG_SCHEMA)
    index.add(("A", "x", "s"), {"title": "s", "lyrics": None, "duration": 1})
    assert index.query("lyrics", "anything") == []


def test_case_insensitive_matching():
    index = LocalSecondaryIndex(ALBUM_SCHEMA)
    index.add(("A", "x"), {"title": "X", "year": 2000})
    assert index.query("year", "2000") == [("A", "x")]
    text_index = LocalSecondaryIndex(SONG_SCHEMA)
    text_index.add(("A", "x", "s"),
                   {"title": "s", "lyrics": "LOVE Me Do", "duration": 1})
    assert text_index.query("lyrics", "love me") == [("A", "x", "s")]


def test_scoped_and_unscoped_queries_agree_with_a_model():
    """Seeded walk over add / re-index / remove: every answer, scoped
    to a collection or not, equals a scan of the documents kept beside
    the index, in sorted key order."""
    import random
    rng = random.Random(7)
    index = LocalSecondaryIndex(SONG_SCHEMA)
    words = ["love", "me", "do", "sky", "lucy"]
    documents = {}
    for _ in range(600):
        key = (f"artist-{rng.randrange(6)}", "album", f"s{rng.randrange(12)}")
        if rng.random() < 0.25:
            index.remove(key)
            documents.pop(key, None)
        else:
            lyrics = " ".join(rng.sample(words, rng.randint(1, 3)))
            index.add(key, {"title": "t", "lyrics": lyrics, "duration": 1})
            documents[key] = set(lyrics.split())
        tokens = rng.sample(words, rng.randint(1, 2))
        for resource_id in (None, f"artist-{rng.randrange(7)}"):
            expected = sorted(
                k for k, have in documents.items()
                if have.issuperset(tokens)
                and resource_id in (None, k[0]))
            assert index.query("lyrics", " ".join(tokens),
                               resource_id=resource_id) == expected
    for key in list(documents):
        index.remove(key)
    assert index.is_empty and not index._postings


class CountedKey(tuple):
    """A document key that counts how often its elements are read."""

    reads = 0

    def __getitem__(self, i):
        CountedKey.reads += 1
        return tuple.__getitem__(self, i)


def test_scoped_query_does_not_look_at_other_collections():
    index = LocalSecondaryIndex(ALBUM_SCHEMA)
    for artist in range(2_000):
        index.add(CountedKey((f"artist-{artist}", "debut")),
                  {"title": "Debut", "year": 2000})
    CountedKey.reads = 0
    assert index.query("year", "2000", resource_id="artist-7") == [
        ("artist-7", "debut")]
    assert CountedKey.reads == 0    # not once per album of the year 2000
