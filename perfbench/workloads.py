"""Seeded inputs for the end-to-end benchmark.

Everything the server receives is generated here, from the run's seed,
before any timing starts: the SQL data script, the point-read stream,
the scan-read queries with their expected row counts, and the write
stream.  The same seed always yields the same inputs.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.workloads import Dataset, WorkloadConfig, generate_dataset
from repro.workloads.operations import PREFIXES, mixed_workload

#: The dataset scale: about 14k rows over the paper's six tables.
SCALE = dict(authors=2000, publications=4000, teams=20, publishers=6)

#: Zipf exponent of the point-read key distribution.  With s = 1.2 over
#: 2000 authors, in steady state about 75% of requests hit the session's
#: 128-entry prepared cache and 82% the planner's 256-entry plan cache;
#: the tail misses both.  Both shares stay clear of 50% and 90%, so the
#: median is a hit and the 90th percentile a miss on every seed.
ZIPF_S = 1.2

#: Why each workload exists, and how it is driven (closed loop: every
#: client sends its next request only after the previous reply).
WORKLOADS: Dict[str, Dict[str, str]] = {
    "point-read": {
        "load": "closed loop, 1 client, 1 keep-alive connection",
        "why": (
            "Single-pattern SELECT by primary key, Zipf-skewed over all "
            "2000 authors: transport and HTTP framing are almost all of "
            "each request, so transport, session-cache and plan-cache "
            "changes show here while executor, serialization and WAL "
            "work is nearly nil."
        ),
    },
    "scan-read": {
        "load": "closed loop, 1 client, 1 keep-alive connection",
        "why": (
            "A few distinct multi-pattern joins of about 100 rows each, "
            "streamed as chunked SPARQL JSON: executor joins and result "
            "serialization dominate, chunked framing makes the most "
            "writes, and the WAL and cache misses are bypassed."
        ),
    },
    "write-mix": {
        "load": (
            "closed loop, 2 clients on 2 keep-alive connections: a "
            "writer and a reader"
        ),
        "why": (
            "The paper's update mix (50% INSERT DATA, 20% MODIFY, 20% "
            "DELETE DATA, 10% full-publication inserts) exercises "
            "Algorithm 1/2 translation, MODIFY's WHERE scan and WAL "
            "append + fsync; a concurrent point reader shows what "
            "writes cost reads."
        ),
    },
}


def dataset(seed: int) -> Dataset:
    return generate_dataset(WorkloadConfig(seed=seed, **SCALE))


def _sql_value(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, int):
        return str(value)
    return "'" + str(value).replace("'", "''") + "'"


def data_script(data: Dataset) -> str:
    """The dataset as a SQL script: one multi-row INSERT per table,
    parents first, so loading it is a handful of commits."""
    tables = (
        ("team", data.teams, ("id", "name", "code")),
        ("publisher", data.publishers, ("id", "name")),
        ("pubtype", data.pubtypes, ("id", "type")),
        ("author", data.authors,
         ("id", "title", "email", "firstname", "lastname", "team")),
        ("publication", data.publications,
         ("id", "title", "year", "type", "publisher")),
    )
    lines = []
    for table, rows, columns in tables:
        values = ", ".join(
            "(" + ", ".join(_sql_value(row[c]) for c in columns) + ")"
            for row in rows
        )
        lines.append(f"INSERT INTO {table} ({', '.join(columns)}) VALUES {values};")
    links = ", ".join(f"({p}, {a})" for p, a in data.authorships)
    lines.append(
        f"INSERT INTO publication_author (publication, author) VALUES {links};"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointRead:
    text: str
    family_name: str


def point_query(author_id: int) -> str:
    return (
        PREFIXES
        + f"SELECT ?n WHERE {{ ex:author{author_id} foaf:family_name ?n . }}\n"
    )


def point_stream(data: Dataset, seed: int, count: int) -> List[PointRead]:
    """``count`` primary-key reads, Zipf-skewed over every author.  Ranks
    map to authors through a seeded permutation, so the hot head is a
    different set of authors for every seed."""
    rng = random.Random(seed)
    authors = list(data.authors)
    rng.shuffle(authors)
    weights = list(
        itertools.accumulate(1.0 / (rank ** ZIPF_S) for rank in range(1, len(authors) + 1))
    )
    picks = rng.choices(authors, cum_weights=weights, k=count)
    return [PointRead(point_query(a["id"]), a["lastname"]) for a in picks]


def scan_queries(data: Dataset, seed: int) -> List[Tuple[str, int]]:
    """Four distinct joins of about 100 rows each, with their expected
    row counts: the members of three teams with their family names, and
    the creators of one publisher's publications of one year, joined
    through the ``publication_author`` link table (``dc:creator``)."""
    rng = random.Random(seed)
    members = Counter(a["team"] for a in data.authors if a["team"] is not None)
    teams = rng.sample(sorted(members), 3)
    queries = [
        (
            PREFIXES
            + "SELECT ?a ?n WHERE { "
            + f"?a ont:team ex:team{team} ; foaf:family_name ?n . }}\n",
            members[team],
        )
        for team in teams
    ]
    by_id = {p["id"]: p for p in data.publications}
    creators = Counter(
        (by_id[p]["publisher"], by_id[p]["year"])
        for p, _ in data.authorships
        if by_id[p]["publisher"] is not None
    )
    # the (publisher, year) cell closest to 100 rows; ties broken by seed
    cells = sorted(creators, key=lambda c: (abs(creators[c] - 100), rng.random()))
    publisher, year = cells[0]
    queries.append(
        (
            PREFIXES
            + "SELECT ?p ?t ?a WHERE { "
            + f"?p dc:publisher ex:publisher{publisher} ; ont:pubYear {year} ; "
            + "dc:title ?t ; dc:creator ?a . }\n",
            creators[(publisher, year)],
        )
    )
    return queries


# ---------------------------------------------------------------------------
# writes
# ---------------------------------------------------------------------------

def write_stream(data: Dataset, seed: int, count: int) -> List[str]:
    """The paper's operation mix on ids above the dataset's range, so no
    write touches a row the reads check."""
    return mixed_workload(data, count, seed=seed)
