"""Shared Espresso fixtures: the paper's Music database."""

import pytest

from repro.common.serialization import Field, RecordSchema
from repro.espresso import DatabaseSchema, EspressoCluster, EspressoTableSchema, Router

MUSIC = DatabaseSchema(
    name="Music",
    num_partitions=8,
    replication_factor=2,
    tables=(
        EspressoTableSchema("Artist", ("artist",)),
        EspressoTableSchema("Album", ("artist", "album")),
        EspressoTableSchema("Song", ("artist", "album", "song")),
    ),
)

ARTIST_SCHEMA = RecordSchema("Artist", [
    Field("name", "string"),
    Field("genre", "string", indexed=True),
    Field("bio", ["null", "string"]),
])
ALBUM_SCHEMA = RecordSchema("Album", [
    Field("title", "string"),
    Field("year", "long", indexed=True),
])
SONG_SCHEMA = RecordSchema("Song", [
    Field("title", "string"),
    Field("lyrics", ["null", "string"], free_text=True),
    Field("duration", "long"),
])


@pytest.fixture
def cluster():
    built = EspressoCluster(MUSIC, num_nodes=3)
    built.post_document_schema("Artist", ARTIST_SCHEMA)
    built.post_document_schema("Album", ALBUM_SCHEMA)
    built.post_document_schema("Song", SONG_SCHEMA)
    built.start()
    return built


@pytest.fixture
def router(cluster):
    return Router(cluster)


def scn_regressions(before: dict, after: dict) -> list:
    """Partitions whose recovered ``partition_scn`` is behind what the
    node had applied before it crashed.  Every applied window was
    fsynced first, so recovery must get back at least that far; density
    (no window applied twice or skipped) is enforced by the apply path
    itself."""
    return [partition for partition, scn in sorted(before.items())
            if after.get(partition, 0) < scn]


def put_album(router, artist, album, year):
    return router.put(f"/Music/Album/{artist}/{album}",
                      {"title": album.replace("_", " "), "year": year})


def put_song(router, artist, album, song, lyrics=None, duration=180):
    return router.put(
        f"/Music/Song/{artist}/{album}/{song}",
        {"title": song.replace("_", " "), "lyrics": lyrics,
         "duration": duration})
