"""Local secondary index: term and free-text postings."""

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.common.serialization import Field, RecordSchema
from repro.espresso import LocalSecondaryIndex
from repro.espresso.index import tokenize

from tests.espresso.conftest import SONG_SCHEMA, ALBUM_SCHEMA

MAILBOX_SCHEMA = RecordSchema("Mailbox", [
    Field("subject", "string"), Field("folder", "string", indexed=True)])
PROFILE_SCHEMA = RecordSchema("Profile", [
    Field("name", "string"), Field("headline", "string"),
    Field("industry", "string", indexed=True)])


def test_tokenize():
    assert tokenize("Lucy in the Sky, with Diamonds!") == \
        ["lucy", "in", "the", "sky", "with", "diamonds"]


def reference_tokenize(text: str) -> list[str]:
    """The regex tokenizer the byte translation replaced."""
    return re.findall("[a-z0-9]+", text.lower())


#: any code point, lone surrogates included (``st.characters()`` alone
#: never draws one)
ANY_CHARACTER = st.one_of(
    st.characters(),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF,
                  categories=["Cs"]))


@settings(max_examples=200, deadline=None)
@given(st.text(ANY_CHARACTER))
def test_tokenize_matches_the_regex_on_any_text(text):
    assert tokenize(text) == reference_tokenize(text)


@pytest.mark.parametrize("text", [
    "\u0130",              # İ: lowercases to "i" plus a combining dot
    "K\u212a9",            # the Kelvin sign lowercases to ASCII "k"
    "a\ud800b",            # a lone surrogate separates
    "stra\u00dfe",         # ß stays non-ASCII under lower()
    "\ufb01ne",            # the ﬁ ligature too
    "caf\u00e9 ol\u00e9\u00b2 x\u00b9y",  # superscript digits are not digits
    "  \t\nA_b-C.d/E\x00f\x7f",
    "",
])
def test_tokenize_matches_the_regex_on_named_cases(text):
    assert tokenize(text) == reference_tokenize(text)


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


def assert_no_state_outlives_its_documents(index, live: set) -> None:
    """Every posting, resource bucket and term tuple belongs to a live
    document, and each document's pairs are its postings' own."""
    assert set(index._doc_terms) == live
    held = set()
    for term, by_resource in index._postings.items():
        assert by_resource and by_resource.term is term
        for resource_id, keys in by_resource.items():
            assert keys and all(key[0] == resource_id for key in keys)
            assert type(keys) is set or len(keys) == 1
            assert all(term in index._doc_terms[key] for key in keys)
            held.update(keys)
    assert held == live
    for key, terms in index._doc_terms.items():
        assert len(set(terms)) == len(terms)
        assert all(index._postings[term].term is term for term in terms)


def test_scoped_and_unscoped_queries_agree_with_a_model():
    """Seeded walk over add / re-index / remove: every answer, scoped
    to a collection or not, equals a scan of the documents kept beside
    the index, in sorted key order, and no state outlives its
    documents."""
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
        assert_no_state_outlives_its_documents(index, set(documents))
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


def test_a_one_term_document_costs_references_not_copies():
    """5 000 mailbox documents shaped like espresso-cdc's (one indexed
    folder of three, five messages per member): each costs its key's
    place in a resource bucket and one tuple of a shared pair — 486 B
    per document when each kept a set of fresh pairs of fresh strings."""
    rng = random.Random(0)
    keys = [(f"m{i % 1000:05d}", f"{i // 1000:04d}") for i in range(5000)]
    documents = [{"subject": "s",
                  "folder": rng.choice(("inbox", "archive", "sent"))}
                 for _ in keys]
    index = LocalSecondaryIndex(MAILBOX_SCHEMA)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key, document in zip(keys, documents):
            index.add(key, document)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert index.query("folder", "inbox", resource_id="m00007")
    assert held / len(keys) <= 420


def test_a_one_document_resource_costs_no_set():
    """5 000 profile documents shaped like espresso-cdc's (one indexed
    industry of five, one document per member): a resource that holds
    one key keeps it in a 1-tuple — 320 B per document when every
    bucket was a set, 216 B of it the one-element set."""
    rng = random.Random(0)
    keys = [(f"m{i:05d}",) for i in range(5000)]
    documents = [{"name": "n", "headline": "h",
                  "industry": rng.choice(("software", "finance", "health",
                                          "media", "retail"))}
                 for _ in keys]
    index = LocalSecondaryIndex(PROFILE_SCHEMA)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key, document in zip(keys, documents):
            index.add(key, document)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert index.query("industry", documents[7]["industry"],
                       resource_id="m00007") == [("m00007",)]
    assert held / len(keys) <= 180
    assert_no_state_outlives_its_documents(index, set(keys))

