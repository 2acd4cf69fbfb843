"""A ranked inverted index with per-field boosts.

Ranking is TF-IDF with field weighting — deliberately simple, but with
the structural hooks the paper's description needs: multi-term queries,
field boosts (a name hit outranks a headline hit), and a pluggable
*feature layer* so callers can fold in signals beyond the text (social
distance, activity) at query time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from sys import intern
from typing import Callable

from repro.common.errors import ConfigurationError
from repro.espresso.index import tokenize


@dataclass(frozen=True)
class SearchHit:
    doc_id: object
    score: float
    text_score: float
    feature_score: float


FeatureScorer = Callable[[object], float]

# distinct weighted term frequencies an index shares between postings;
# a weight seen after the table is full is stored as its own float
_SHARED_WEIGHTS_MAX = 256


class RankedInvertedIndex:
    """Documents are dicts of text fields; fields carry boosts.

    An indexed document costs references: every term string is interned
    (one object per distinct term, shared by its posting and every
    document holding it, and freed with its last reference), a document
    keeps one tuple of its terms, and postings share equal weights
    through a table of at most ``_SHARED_WEIGHTS_MAX`` floats.
    """

    def __init__(self, field_boosts: dict[str, float]):
        if not field_boosts:
            raise ConfigurationError("declare at least one field")
        if any(boost <= 0 for boost in field_boosts.values()):
            raise ConfigurationError("boosts must be positive")
        self.field_boosts = dict(field_boosts)
        # term -> doc_id -> weighted term frequency
        self._postings: dict[str, dict[object, float]] = {}
        self._doc_terms: dict[object, tuple[str, ...]] = {}
        self._doc_lengths: dict[object, float] = {}
        self._weights: dict[float, float] = {}

    def __len__(self) -> int:
        return len(self._doc_terms)

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._doc_terms

    # -- maintenance ----------------------------------------------------------

    def add(self, doc_id: object, document: dict) -> None:
        """Index ``document`` under ``doc_id``.  A re-index updates in
        place: only the postings of terms the new document lacks are
        removed, and a shared term's weight is overwritten."""
        weighted_tf: dict[str, float] = {}
        for fieldname, boost in self.field_boosts.items():
            text = document.get(fieldname)
            if not text:
                continue
            for token in tokenize(str(text)):
                weighted_tf[token] = weighted_tf.get(token, 0.0) + boost
        if not weighted_tf:
            self.remove(doc_id)
            return
        postings = self._postings
        for term in self._doc_terms.get(doc_id, ()):
            if term not in weighted_tf:
                bucket = postings[term]
                del bucket[doc_id]
                if not bucket:
                    del postings[term]
        terms = tuple(map(intern, weighted_tf))
        weights = self._weights
        for term, tf in zip(terms, weighted_tf.values()):
            if tf not in weights and len(weights) < _SHARED_WEIGHTS_MAX:
                weights[tf] = tf
            bucket = postings.get(term)
            if bucket is None:
                postings[term] = {doc_id: weights.get(tf, tf)}
            else:
                bucket[doc_id] = weights.get(tf, tf)
        self._doc_terms[doc_id] = terms
        self._doc_lengths[doc_id] = math.sqrt(
            sum(tf * tf for tf in weighted_tf.values()))

    def remove(self, doc_id: object) -> None:
        for term in self._doc_terms.pop(doc_id, ()):
            bucket = self._postings.get(term)
            if bucket is not None:
                bucket.pop(doc_id, None)
                if not bucket:
                    del self._postings[term]
        self._doc_lengths.pop(doc_id, None)

    # -- queries ------------------------------------------------------------------

    def _idf(self, term: str) -> float:
        matching = len(self._postings.get(term, {}))
        if matching == 0:
            return 0.0
        return math.log(1.0 + len(self._doc_terms) / matching)

    def search(self, query: str, limit: int = 10,
               feature_scorer: FeatureScorer | None = None,
               feature_weight: float = 1.0) -> list[SearchHit]:
        """Rank documents matching ANY query term (OR semantics with
        TF-IDF scoring); ``feature_scorer`` folds per-document signals
        (social distance, activity) into the final score."""
        terms = tokenize(query)
        if not terms:
            return []
        accumulator: dict[object, float] = {}
        for term in terms:
            idf = self._idf(term)
            for doc_id, tf in self._postings.get(term, {}).items():
                accumulator[doc_id] = accumulator.get(doc_id, 0.0) + tf * idf
        hits = []
        for doc_id, raw in accumulator.items():
            text_score = raw / self._doc_lengths[doc_id]
            feature = (feature_scorer(doc_id)
                       if feature_scorer is not None else 0.0)
            hits.append(SearchHit(doc_id,
                                  text_score + feature_weight * feature,
                                  text_score, feature))
        hits.sort(key=lambda h: (-h.score, str(h.doc_id)))
        return hits[:limit]
