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

from sys import intern

from repro.common.errors import ConfigurationError
from repro.common.serialization import RecordSchema

#: byte -> itself for ``0-9a-z``, a space for every other byte
_SEPARATORS = bytes(byte if byte in b"0123456789abcdefghijklmnopqrstuvwxyz"
                    else 0x20 for byte in range(256))


def tokenize(text: str) -> list[str]:
    """The runs of ``[a-z0-9]`` in ``text.lower()``.  A non-ASCII code
    point (a lone surrogate too) encodes to bytes >= 0x80, which the
    table makes separators, so this is ``re.findall("[a-z0-9]+", ...)``
    in one translation."""
    return text.lower().encode("utf-8", "surrogatepass") \
        .translate(_SEPARATORS).decode("ascii").split()


class _Posting(dict):
    """One ``(field, term)``'s documents: resource_id -> its keys, a
    1-tuple while the resource holds one and a set from the second on
    (most resources of a one-document-per-member table hold one).

    ``term`` is the pair, of interned strings, that every document
    holding it shares; it lives exactly as long as the posting."""

    __slots__ = ("term",)

    def __init__(self, fieldname: str, term: str):
        super().__init__()
        self.term = (intern(fieldname), intern(term))


class LocalSecondaryIndex:
    """Inverted index over one table's documents on one node.

    An indexed document costs references: it keeps one tuple of the
    ``(field, term)`` pairs its postings own, never a copy of them."""

    def __init__(self, schema: RecordSchema):
        self.schema = schema
        # the reader a stored document is resolved against to be indexed:
        # plain Avro resolution then yields the indexed values (defaulted,
        # coerced) and skips the rest; no fields, nothing to index
        self.projection = RecordSchema(schema.name, schema.indexed_fields,
                                       version=schema.version)
        self._term_fields = {f.name for f in schema.fields if f.indexed}
        self._text_fields = {f.name for f in schema.fields if f.free_text}
        # (field, term) -> resource_id (a key's first element) -> its
        # document keys, so a collection-scoped query touches one
        # resource's keys and never the rest of the table's
        self._postings: dict[tuple[str, str], _Posting] = {}
        # doc key -> its postings' (field, term) pairs, for removal
        self._doc_terms: dict[tuple, tuple[tuple[str, str], ...]] = {}

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
        resource_id = doc_key[0]
        terms = []
        for term in self._terms_for(document):
            posting = self._postings.get(term)
            if posting is None:
                posting = _Posting(*term)
                self._postings[posting.term] = posting
            bucket = posting.get(resource_id)
            if bucket is None:
                posting[resource_id] = (doc_key,)
            elif type(bucket) is tuple:
                posting[resource_id] = {*bucket, doc_key}
            else:
                bucket.add(doc_key)
            terms.append(posting.term)
        if terms:
            self._doc_terms[doc_key] = tuple(terms)

    def remove(self, doc_key: tuple) -> None:
        terms = self._doc_terms.pop(doc_key, None)
        if terms is None:
            return
        resource_id = doc_key[0]
        for term in terms:
            by_resource = self._postings[term]
            bucket = by_resource[resource_id]
            if type(bucket) is not tuple:    # a 1-tuple holds only doc_key
                bucket.discard(doc_key)
                if bucket:
                    continue
            del by_resource[resource_id]
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
