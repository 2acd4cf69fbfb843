"""Ranked inverted index: TF-IDF, boosts, feature layer."""

import math
import random
import tracemalloc

import pytest

from repro.common.errors import ConfigurationError
from repro.espresso.index import tokenize
from repro.search import RankedInvertedIndex
from repro.search.index import _SHARED_WEIGHTS_MAX


@pytest.fixture
def index():
    built = RankedInvertedIndex({"name": 3.0, "headline": 1.0})
    built.add(1, {"name": "Jay Kreps", "headline": "Kafka infrastructure"})
    built.add(2, {"name": "Ada Lovelace", "headline": "Kafka enthusiast"})
    built.add(3, {"name": "Kafka Tamura", "headline": "Novel character"})
    return built


def test_boost_validation():
    with pytest.raises(ConfigurationError):
        RankedInvertedIndex({})
    with pytest.raises(ConfigurationError):
        RankedInvertedIndex({"name": 0})


def test_all_matching_documents_returned(index):
    hits = index.search("kafka")
    assert {h.doc_id for h in hits} == {1, 2, 3}


def test_name_field_outranks_headline(index):
    hits = index.search("kafka")
    assert hits[0].doc_id == 3  # name hit with boost 3.0


def test_multi_term_accumulates(index):
    hits = index.search("kafka infrastructure")
    assert hits[0].doc_id == 1  # matches both terms


def test_no_match_returns_empty(index):
    assert index.search("espresso") == []
    assert index.search("") == []
    assert index.search("!!!") == []


def test_rare_terms_weigh_more_than_common():
    index = RankedInvertedIndex({"text": 1.0})
    for i in range(10):
        index.add(i, {"text": "engineer common"})
    index.add(99, {"text": "engineer distributed"})
    hits = index.search("distributed engineer")
    assert hits[0].doc_id == 99  # the rare term dominates


def test_update_replaces_document(index):
    index.add(1, {"name": "Jay Kreps", "headline": "Samza now"})
    assert all(h.doc_id != 1 for h in index.search("infrastructure"))
    assert any(h.doc_id == 1 for h in index.search("samza"))


def test_remove_document(index):
    index.remove(3)
    assert {h.doc_id for h in index.search("kafka")} == {1, 2}
    assert len(index) == 2
    index.remove(3)  # idempotent


def test_limit(index):
    assert len(index.search("kafka", limit=2)) == 2


def test_feature_scorer_reranks(index):
    # text-wise doc 3 wins "kafka"; a feature can override
    hits = index.search("kafka",
                        feature_scorer=lambda doc: 5.0 if doc == 2 else 0.0,
                        feature_weight=1.0)
    assert hits[0].doc_id == 2
    assert hits[0].feature_score == 5.0
    # with weight 0 the feature is ignored
    hits = index.search("kafka",
                        feature_scorer=lambda doc: 5.0 if doc == 2 else 0.0,
                        feature_weight=0.0)
    assert hits[0].doc_id == 3


def test_empty_fields_not_indexed():
    index = RankedInvertedIndex({"name": 1.0, "headline": 1.0})
    index.add(1, {"name": "Solo", "headline": ""})
    assert len(index) == 1
    assert index.search("solo")[0].doc_id == 1


# -- the model walk and the memory pin ----------------------------------------

WORDS = ("data infrastructure voldemort databus espresso kafka member "
         "profile stream change capture timeline consistent replica "
         "partition master slave relay bootstrap index").split()


def reference_hits(documents: dict, boosts: dict, query: str) -> list:
    """TF-IDF recomputed from the live documents alone, in the index's
    arithmetic order, so scores compare bit for bit."""
    weighted = {}
    for doc_id, document in documents.items():
        tf = {}
        for fieldname, boost in boosts.items():
            for token in tokenize(str(document.get(fieldname) or "")):
                tf[token] = tf.get(token, 0.0) + boost
        if tf:
            weighted[doc_id] = tf
    hits = []
    for doc_id, tf in weighted.items():
        raw = None
        for term in tokenize(query):
            if term in tf:
                matching = sum(term in other for other in weighted.values())
                idf = math.log(1.0 + len(weighted) / matching)
                raw = (0.0 if raw is None else raw) + tf[term] * idf
        if raw is not None:
            score = raw / math.sqrt(sum(w * w for w in tf.values()))
            hits.append((doc_id, score))
    hits.sort(key=lambda hit: (-hit[1], str(hit[0])))
    return hits


def assert_no_state_outlives_its_documents(index, live: set) -> None:
    assert len(index) == len(live)
    assert set(index._doc_terms) == set(index._doc_lengths) == live
    held = {id(term): term for term in index._postings}
    for doc_id, terms in index._doc_terms.items():
        assert len(set(terms)) == len(terms)
        for term in terms:
            assert held.get(id(term)) is term     # the posting's own string
            assert doc_id in index._postings[term]
    for term, bucket in index._postings.items():
        assert bucket                             # no empty posting bucket
        assert all(term in index._doc_terms[doc_id] for doc_id in bucket)
    assert len(index._weights) <= _SHARED_WEIGHTS_MAX


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_agrees_with_a_recomputed_model_after_every_step(seed):
    """A seeded walk of adds, in-place updates, removes and empty
    documents: every answer, ids and scores, equals TF-IDF recomputed
    from the live documents, and no state outlives its documents.  Most
    adds pick a held id, so they re-index a document in place (its terms
    partly shared with the new text, partly not)."""
    rng = random.Random(seed)
    boosts = {"subject": 2.0, "body": 1.0}
    index = RankedInvertedIndex(boosts)
    documents = {}
    for _ in range(400):
        doc_id = rng.randrange(40)
        draw = rng.random()
        if draw < 0.2:
            index.remove(doc_id)
            documents.pop(doc_id, None)
        elif draw < 0.3:
            empty = rng.choice([{}, {"subject": ""}, {"body": "!!"}])
            index.add(doc_id, empty)
            documents.pop(doc_id, None)
        else:
            if documents and rng.random() < 0.9:
                doc_id = rng.choice(sorted(documents))
            document = {
                "subject": " ".join(rng.choices(WORDS[:8], k=rng.randint(0, 5))),
                "body": " ".join(rng.choices(WORDS, k=rng.randint(1, 12)))}
            index.add(doc_id, document)
            documents[doc_id] = document
        assert_no_state_outlives_its_documents(index, set(documents))
        query = " ".join(rng.choices(WORDS + ["absent"], k=rng.randint(1, 3)))
        hits = index.search(query, limit=100)
        assert [(h.doc_id, h.score) for h in hits] == \
            reference_hits(documents, boosts, query)
        assert all(h.score == h.text_score for h in hits)
    for doc_id in list(documents):
        index.remove(doc_id)
    assert len(index) == 0 and not index._postings


def test_an_indexed_document_costs_references_not_copies():
    """5 000 documents shaped like espresso-cdc's mailbox messages (a
    five-word subject, a 32-word body, a 20-word vocabulary): each costs
    its posting entries and one tuple of shared terms — 3 213 B per
    document when each kept a set of fresh strings and fresh floats."""
    rng = random.Random(0)
    doc_ids = [(f"m{i % 1000:05d}", f"{i // 1000:04d}") for i in range(5000)]
    documents = [{"subject": " ".join(rng.choices(WORDS, k=5)),
                  "body": " ".join(rng.choices(WORDS, k=32))}
                 for _ in doc_ids]
    index = RankedInvertedIndex({"subject": 2.0, "body": 1.0})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for doc_id, document in zip(doc_ids, documents):
            index.add(doc_id, document)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index) == len(doc_ids)
    assert held / len(doc_ids) <= 1500
