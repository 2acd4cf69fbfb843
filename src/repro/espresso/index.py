"""Local secondary indexing — the Lucene stand-in (§IV.A, §IV.B).

Each storage node "optionally indexes each document in a local
secondary index based on the index constraints specified in the
document schema".  Two constraint kinds are supported:

* ``indexed`` — exact-term postings on the field's value;
* ``free_text`` — tokenized postings supporting multi-word queries
  (all terms must match, the paper's ``lyrics:"Lucy in the sky"``
  example).

Queries "first consult a local secondary index then return the matching
documents from the local data store"; results can be restricted to one
collection resource (common resource_id prefix), which is the only
indexed access path the paper allows.
"""

from __future__ import annotations

import re

from repro.common.errors import ConfigurationError
from repro.common.serialization import RecordSchema

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class LocalSecondaryIndex:
    """Inverted index over one table's documents on one node."""

    def __init__(self, schema: RecordSchema):
        self.schema = schema
        # the reader a stored document is resolved against to be indexed:
        # plain Avro resolution then yields the indexed values (defaulted,
        # coerced) and skips the rest; no fields, nothing to index
        self.projection = RecordSchema(schema.name, schema.indexed_fields,
                                       version=schema.version)
        self._term_fields = {f.name for f in schema.fields if f.indexed}
        self._text_fields = {f.name for f in schema.fields if f.free_text}
        # (field, term) -> resource_id (a key's first element) -> set
        # of document keys, so a collection-scoped query touches one
        # resource's keys and never the rest of the table's
        self._postings: dict[tuple[str, str], dict[str, set[tuple]]] = {}
        # doc key -> set of (field, term) for removal
        self._doc_terms: dict[tuple, set[tuple[str, str]]] = {}

    @property
    def is_empty(self) -> bool:
        return not self._doc_terms

    def _terms_for(self, document: dict) -> set[tuple[str, str]]:
        terms: set[tuple[str, str]] = set()
        for fieldname in self._term_fields:
            value = document.get(fieldname)
            if value is not None:
                terms.add((fieldname, str(value).lower()))
        for fieldname in self._text_fields:
            value = document.get(fieldname)
            if value is not None:
                for token in tokenize(str(value)):
                    terms.add((fieldname, token))
        return terms

    def add(self, doc_key: tuple, document: dict) -> None:
        """Index (or re-index) one document."""
        self.remove(doc_key)
        terms = self._terms_for(document)
        for term in terms:
            self._postings.setdefault(term, {}).setdefault(
                doc_key[0], set()).add(doc_key)
        if terms:
            self._doc_terms[doc_key] = terms

    def remove(self, doc_key: tuple) -> None:
        for term in self._doc_terms.pop(doc_key, ()):
            by_resource = self._postings[term]
            bucket = by_resource[doc_key[0]]
            bucket.discard(doc_key)
            if not bucket:
                del by_resource[doc_key[0]]
                if not by_resource:
                    del self._postings[term]

    def _matches(self, fieldname: str, term: str,
                 resource_id: str | None) -> set[tuple]:
        by_resource = self._postings.get((fieldname, term), {})
        if resource_id is not None:
            return set(by_resource.get(resource_id, ()))
        return set().union(*by_resource.values())

    def query(self, fieldname: str, value: str,
              resource_id: str | None = None) -> list[tuple]:
        """Document keys matching ``fieldname:value``.

        Exact-term fields match the whole value; free-text fields match
        documents containing *all* tokens of ``value``.  With
        ``resource_id`` set, results are limited to that collection.
        """
        if fieldname in self._term_fields:
            matches = self._matches(fieldname, value.lower(), resource_id)
        elif fieldname in self._text_fields:
            tokens = tokenize(value)
            if not tokens:
                return []
            matches = self._matches(fieldname, tokens[0], resource_id)
            for token in tokens[1:]:
                matches &= self._matches(fieldname, token, resource_id)
        else:
            raise ConfigurationError(
                f"field {fieldname!r} carries no index constraint")
        return sorted(matches)
