"""Espresso URI parsing (§IV.A).

Documents are identified by

    /<database>/<table>/<resource_id>[/<subresource_id>...]

A path naming only the ``resource_id`` may refer to a *collection
resource* (all documents sharing that resource id).  Query parameters
express secondary-index queries: ``?query=lyrics:"Lucy in the sky"``.
A ``*`` table name with a POST is a transactional multi-table update.
"""

from __future__ import annotations

from dataclasses import dataclass
from urllib.parse import parse_qs, unquote

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class EspressoUri:
    database: str
    table: str
    resource_id: str | None = None
    subresource_ids: tuple[str, ...] = ()
    query: str | None = None

    @property
    def key(self) -> tuple[str, ...]:
        """The document key: resource id plus subresource ids."""
        if self.resource_id is None:
            raise ConfigurationError("URI names no resource")
        return (self.resource_id,) + self.subresource_ids

    @property
    def is_collection(self) -> bool:
        """True when the path stops at the resource id (or earlier)."""
        return self.resource_id is not None and not self.subresource_ids

    @property
    def is_transactional(self) -> bool:
        return self.table == "*"


def parse_uri(uri: str) -> EspressoUri:
    """Parse a path (optionally a full URL) into an :class:`EspressoUri`.

    The URI is split, not URL-parsed: a ``#fragment`` is dropped, a
    ``?query`` goes to ``parse_qs``, and a URI that does not start with
    ``/`` may carry a ``scheme://authority`` prefix before its path.
    Nothing is stripped or normalised, and ``;`` is part of a segment.

    >>> parse_uri("/Music/Album/Cher/Greatest_Hits").key
    ('Cher', 'Greatest_Hits')
    """
    path, _, query_string = uri.partition("#")[0].partition("?")
    if not path.startswith("/"):
        _, scheme_sep, authority_path = path.partition("://")
        if scheme_sep:
            _, slash, tail = authority_path.partition("/")
            path = slash + tail
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
    if query_string:
        params = parse_qs(query_string)
        if "query" in params:
            query = params["query"][0]
    return EspressoUri(database, table, resource_id, subresources, query)


def parse_index_query(query: str) -> tuple[str, str]:
    """Split ``field:value`` (value optionally double-quoted)."""
    if ":" not in query:
        raise ConfigurationError(f"index queries look like field:value: {query!r}")
    fieldname, _, value = query.partition(":")
    value = value.strip()
    if value.startswith('"') and value.endswith('"') and len(value) >= 2:
        value = value[1:-1]
    if not fieldname or not value:
        raise ConfigurationError(f"malformed index query {query!r}")
    return fieldname.strip(), value
