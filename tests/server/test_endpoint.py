"""Tests for the HTTP endpoint and client (paper Section 6)."""

import pytest

from repro import OntoAccess
from repro.observability.metrics import EXECUTOR_ROWS
from repro.rdf import OA, RDF
from repro.server import OntoAccessClient, OntoAccessEndpoint
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)

UPDATE_OK = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
INSERT DATA {
    ex:team4 foaf:name "Database Technology" ;
             ont:teamCode "DBTG" .
}
"""

UPDATE_BAD = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ex:   <http://example.org/db/>
INSERT DATA { ex:author9 foaf:firstName "NoLastname" . }
"""


@pytest.fixture
def endpoint():
    db = build_database()
    seed_feasibility_data(db)
    mediator = OntoAccess(db, build_mapping(db))
    return OntoAccessEndpoint(mediator)


SELECT_AUTHORS = (
    'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
    'SELECT ?n WHERE { ?x foaf:family_name ?n . }'
)


class TestResultFormats:
    """SPARQL 1.1 CSV/TSV result formats and response streaming."""

    def test_select_csv(self, endpoint):
        response = endpoint.handle_query(SELECT_AUTHORS, accept="text/csv")
        assert response.status == 200
        assert response.content_type.startswith("text/csv")
        lines = response.body.split("\r\n")
        assert lines[0] == "n"
        assert "Hert" in lines[1:]  # plain value, no quotes needed

    def test_select_csv_quotes_metacharacters(self, endpoint):
        endpoint.handle_update(
            'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
            'PREFIX ex: <http://example.org/db/> '
            'INSERT DATA { ex:author7 foaf:firstName "A" ; '
            'foaf:family_name "Comma, \\"Quoted\\"" . }'
        )
        response = endpoint.handle_query(SELECT_AUTHORS, accept="text/csv")
        assert '"Comma, ""Quoted"""' in response.body

    def test_select_tsv(self, endpoint):
        response = endpoint.handle_query(
            SELECT_AUTHORS, accept="text/tab-separated-values"
        )
        assert response.status == 200
        assert response.content_type.startswith("text/tab-separated-values")
        lines = response.body.splitlines()
        assert lines[0] == "?n"
        assert '"Hert"' in lines[1:]  # TSV carries encoded terms

    def test_select_responses_stream(self, endpoint):
        """SELECT bodies are produced as chunks, not one string."""
        for accept in (
            "text/csv",
            "text/tab-separated-values",
            "application/sparql-results+json",
            None,
        ):
            response = endpoint.handle_query(SELECT_AUTHORS, accept=accept)
            assert response.body_iter is not None

    def test_streamed_json_over_http_parses(self, endpoint):
        """Chunked transfer end to end: the stdlib client reassembles the
        streamed JSON document transparently."""
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            document = client.query_json(SELECT_AUTHORS)
        values = {
            binding["n"]["value"]
            for binding in document["results"]["bindings"]
        }
        assert "Hert" in values

    def test_csv_over_http(self, endpoint):
        import urllib.request

        with endpoint:
            request = urllib.request.Request(
                endpoint.url + "/query",
                data=SELECT_AUTHORS.encode(),
                headers={
                    "Content-Type": "application/sparql-query",
                    "Accept": "text/csv",
                },
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.headers.get_content_type() == "text/csv"
                body = response.read().decode()
        assert body.startswith("n\r\n")
        assert "Hert" in body


class TestHandlersDirect:
    """Protocol handlers without network plumbing."""

    def test_update_ok(self, endpoint):
        response = endpoint.handle_update(UPDATE_OK)
        assert response.status == 200
        assert "Confirmation" in response.body
        assert endpoint.mediator.db.get_row_by_pk("team", (4,)) is not None

    def test_update_error(self, endpoint):
        response = endpoint.handle_update(UPDATE_BAD)
        assert response.status == 400
        assert "missing-required-property" in response.body

    def test_update_parse_error(self, endpoint):
        response = endpoint.handle_update("GIBBERISH {")
        assert response.status == 400
        assert "unsupported-request" in response.body

    def test_query_select(self, endpoint):
        response = endpoint.handle_query(
            'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
            'SELECT ?n WHERE { ?x foaf:family_name ?n . }'
        )
        assert response.status == 200
        assert '"Hert"' in response.body

    def test_query_ask(self, endpoint):
        response = endpoint.handle_query(
            'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
            'ASK { ?x foaf:family_name "Hert" . }'
        )
        assert response.body == "true"

    def test_query_error(self, endpoint):
        response = endpoint.handle_query("NOT SPARQL")
        assert response.status == 400

    def test_dump(self, endpoint):
        response = endpoint.handle_dump()
        assert response.status == 200
        assert "foaf:Person" in response.body

    def test_mapping(self, endpoint):
        response = endpoint.handle_mapping()
        assert "r3m:DatabaseMap" in response.body

    def test_counters(self, endpoint):
        endpoint.handle_update(UPDATE_OK)
        endpoint.handle_update(UPDATE_BAD)
        assert endpoint.requests_served == 2
        assert endpoint.errors_returned == 1


class TestOverHTTP:
    """Full loop through a real socket."""

    def test_update_roundtrip(self, endpoint):
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            feedback = client.update(UPDATE_OK)
            assert feedback.ok
            assert list(feedback.graph.subjects(RDF.type, OA.Confirmation))

    def test_error_feedback_parsed(self, endpoint):
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            feedback = client.update(UPDATE_BAD)
            assert not feedback.ok
            assert feedback.code == "missing-required-property"
            assert feedback.hint is not None
            assert "lastname" in feedback.message

    def test_query_over_http(self, endpoint):
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            text = client.query_text(
                'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
                'SELECT ?n WHERE { ?x foaf:family_name ?n . }'
            )
            assert '"Hert"' in text

    def test_point_query_counts_its_select_rows(self, endpoint):
        """An endpoint query takes the lock-free snapshot read path; its
        rows count in ``repro_executor_rows_total{op="select"}`` before
        the response goes out."""
        selected = EXECUTOR_ROWS.labels("select")
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            before = selected.value()
            document = client.query_json(
                'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
                'PREFIX ex: <http://example.org/db/> '
                'SELECT ?n WHERE { ex:author6 foaf:family_name ?n . }'
            )
            moved = selected.value() - before
        assert len(document["results"]["bindings"]) == 1
        assert moved == 1

    def test_dump_over_http(self, endpoint):
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            graph = client.dump()
            assert len(graph) > 0

    def test_mapping_over_http(self, endpoint):
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            assert "r3m:TableMap" in client.mapping_turtle()

    def test_unknown_path_404(self, endpoint):
        import urllib.error
        import urllib.request

        with endpoint:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(endpoint.url + "/nope", timeout=5)
            assert exc.value.code == 404

    def test_sequential_updates_share_state(self, endpoint):
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            assert client.update(UPDATE_OK).ok
            second = client.update(UPDATE_OK.replace("team4", "team7"))
            assert second.ok
            assert endpoint.mediator.db.row_count("team") == 3  # seed + 2


SELECT_NAMES = (
    'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
    'SELECT ?n WHERE { ?x foaf:family_name ?n . }'
)

ASK_HERT = (
    'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
    'ASK { ?x foaf:family_name "Hert" . }'
)


class TestSPARQLProtocol:
    """Content negotiation, GET /query, and the /batch route."""

    def test_select_json_results(self, endpoint):
        response = endpoint.handle_query(
            SELECT_NAMES, accept="application/sparql-results+json"
        )
        assert response.status == 200
        assert response.content_type == "application/sparql-results+json"
        import json

        document = json.loads(response.body)
        assert document["head"]["vars"] == ["n"]
        values = [
            b["n"]["value"] for b in document["results"]["bindings"]
        ]
        assert values == ["Hert"]
        binding = document["results"]["bindings"][0]["n"]
        assert binding["type"] == "literal"

    def test_ask_json_results(self, endpoint):
        response = endpoint.handle_query(
            ASK_HERT, accept="application/sparql-results+json"
        )
        import json

        assert json.loads(response.body) == {"head": {}, "boolean": True}

    def test_default_rendering_unchanged(self, endpoint):
        assert endpoint.handle_query(ASK_HERT).body == "true"
        assert "?n" in endpoint.handle_query(SELECT_NAMES).body

    def test_query_json_over_http(self, endpoint):
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            document = client.query_json(SELECT_NAMES)
            assert document["head"]["vars"] == ["n"]
            assert document["results"]["bindings"][0]["n"]["value"] == "Hert"

    def test_query_via_get(self, endpoint):
        import json
        import urllib.parse
        import urllib.request

        with endpoint:
            url = (
                endpoint.url
                + "/query?"
                + urllib.parse.urlencode({"query": ASK_HERT})
            )
            request = urllib.request.Request(
                url, headers={"Accept": "application/sparql-results+json"}
            )
            with urllib.request.urlopen(request, timeout=5) as response:
                assert json.loads(response.read())["boolean"] is True

    def test_batch_commits_all(self, endpoint):
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            feedback = client.batch(
                [UPDATE_OK, UPDATE_OK.replace("team4", "team7")]
            )
            assert feedback.ok
        assert endpoint.mediator.db.row_count("team") == 3

    def test_batch_rolls_back_on_error(self, endpoint):
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            feedback = client.batch([UPDATE_OK, UPDATE_BAD])
            assert not feedback.ok
            assert feedback.code == "missing-required-property"
        # the batch is atomic: the valid first op was rolled back too
        assert endpoint.mediator.db.get_row_by_pk("team", (4,)) is None
        assert not endpoint.mediator.db.in_transaction()

    def test_batch_single_request_body(self, endpoint):
        """A plain sparql-update body (no JSON) is one batch."""
        response = endpoint.handle_batch(UPDATE_OK)
        assert response.status == 200
        assert endpoint.mediator.db.get_row_by_pk("team", (4,)) is not None

    def test_batch_invalid_json(self, endpoint):
        response = endpoint.handle_batch(
            "{not json", content_type="application/json"
        )
        assert response.status == 400

    def test_batch_non_list_json(self, endpoint):
        response = endpoint.handle_batch(
            '{"a": 1}', content_type="application/json"
        )
        assert response.status == 400

    def test_update_with_placeholders_rejected_at_parse(self, endpoint):
        """The wire protocol has no bindings, so the submission's
        concreteness rule stays enforced over HTTP."""
        response = endpoint.handle_update(
            'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
            'PREFIX ex: <http://example.org/db/> '
            'INSERT DATA { ex:team9 foaf:name ?name . }'
        )
        assert response.status == 400
        assert "unsupported-request" in response.body
        assert "variables" in response.body

    def test_batch_with_invalid_item_surfaces_server_message(self, endpoint):
        """JSON-validation failures come back as text/plain; the client
        must surface the message rather than choke on Turtle parsing."""
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            feedback = client.batch([UPDATE_OK, 123])  # non-string item
            assert not feedback.ok
            assert "JSON array" in feedback.message

    def test_query_json_raises_on_error(self, endpoint):
        from repro.errors import ReproError

        with endpoint:
            client = OntoAccessClient(endpoint.url)
            with pytest.raises(ReproError, match="HTTP 400"):
                client.query_json("SELECT ?x WHERE {")


class TestXmlResults:
    """SPARQL 1.1 Query Results XML Format (ISSUE 5)."""

    XML_ACCEPT = "application/sparql-results+xml"

    def test_select_xml_results(self, endpoint):
        response = endpoint.handle_query(SELECT_NAMES, accept=self.XML_ACCEPT)
        assert response.status == 200
        assert response.content_type.startswith(self.XML_ACCEPT)
        import xml.etree.ElementTree as ET

        root = ET.fromstring(response.body)
        ns = {"s": "http://www.w3.org/2005/sparql-results#"}
        assert [
            v.get("name") for v in root.findall("s:head/s:variable", ns)
        ] == ["n"]
        literals = root.findall("s:results/s:result/s:binding/s:literal", ns)
        assert [el.text for el in literals] == ["Hert"]
        binding = root.find("s:results/s:result/s:binding", ns)
        assert binding.get("name") == "n"

    def test_select_xml_streams(self, endpoint):
        response = endpoint.handle_query(SELECT_NAMES, accept=self.XML_ACCEPT)
        assert response.body_iter is not None  # chunked, not one string

    def test_select_xml_escapes_metacharacters(self, endpoint):
        endpoint.handle_update(
            'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
            'PREFIX ex: <http://example.org/db/> '
            'INSERT DATA { ex:author7 foaf:firstName "A" ; '
            'foaf:family_name "<&\\"tags\\">" . }'
        )
        response = endpoint.handle_query(
            'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
            'SELECT ?n WHERE { ?x foaf:family_name ?n . }',
            accept=self.XML_ACCEPT,
        )
        import xml.etree.ElementTree as ET

        root = ET.fromstring(response.body)  # must be well-formed XML
        ns = {"s": "http://www.w3.org/2005/sparql-results#"}
        texts = {
            el.text
            for el in root.findall("s:results/s:result/s:binding/s:literal", ns)
        }
        assert '<&"tags">' in texts

    def test_ask_xml_results(self, endpoint):
        response = endpoint.handle_query(ASK_HERT, accept=self.XML_ACCEPT)
        import xml.etree.ElementTree as ET

        root = ET.fromstring(response.body)
        ns = {"s": "http://www.w3.org/2005/sparql-results#"}
        assert root.find("s:boolean", ns).text == "true"

    def test_json_outranks_xml_when_both_accepted(self, endpoint):
        response = endpoint.handle_query(
            SELECT_NAMES,
            accept="application/sparql-results+xml, "
            "application/sparql-results+json",
        )
        assert response.content_type == "application/sparql-results+json"

    def test_xml_over_http(self, endpoint):
        import urllib.parse
        import urllib.request
        import xml.etree.ElementTree as ET

        with endpoint:
            url = (
                endpoint.url
                + "/query?"
                + urllib.parse.urlencode({"query": SELECT_NAMES})
            )
            request = urllib.request.Request(
                url, headers={"Accept": self.XML_ACCEPT}
            )
            with urllib.request.urlopen(request, timeout=5) as response:
                assert response.headers.get_content_type() == self.XML_ACCEPT
                root = ET.fromstring(response.read())
            ns = {"s": "http://www.w3.org/2005/sparql-results#"}
            values = [
                el.text
                for el in root.findall(
                    "s:results/s:result/s:binding/s:literal", ns
                )
            ]
            assert values == ["Hert"]


class TestCheckpointRoute:
    """POST /admin/checkpoint (ISSUE 5 durability admin action)."""

    def test_checkpoint_on_memory_database_is_409(self, endpoint):
        response = endpoint.handle_checkpoint()
        assert response.status == 409
        import json

        assert json.loads(response.body)["checkpoint"] is None

    def test_checkpoint_on_durable_database(self, tmp_path):
        import json
        import os

        from repro.rdb import Database
        from repro.workloads.publication import PUBLICATION_DDL

        db = Database(data_dir=str(tmp_path / "dd"))
        db.execute_script(PUBLICATION_DDL)
        endpoint = OntoAccessEndpoint(OntoAccess(db, build_mapping(db)))
        endpoint.handle_update(UPDATE_OK)
        response = endpoint.handle_checkpoint()
        assert response.status == 200
        path = json.loads(response.body)["checkpoint"]
        assert os.path.exists(path)
        db.close()
        # the checkpointed state survives a reopen
        recovered = Database(data_dir=str(tmp_path / "dd"))
        assert recovered.query(
            "SELECT name FROM team WHERE id = 4"
        ).rows == [("Database Technology",)]
        recovered.close()

    def test_checkpoint_over_http(self, tmp_path):
        import json
        import urllib.request

        from repro.rdb import Database
        from repro.workloads.publication import PUBLICATION_DDL

        db = Database(data_dir=str(tmp_path / "dd"))
        db.execute_script(PUBLICATION_DDL)
        endpoint = OntoAccessEndpoint(OntoAccess(db, build_mapping(db)))
        with endpoint:
            request = urllib.request.Request(
                endpoint.url + "/admin/checkpoint", data=b"", method="POST"
            )
            with urllib.request.urlopen(request, timeout=5) as response:
                assert response.status == 200
                assert "checkpoint" in json.loads(response.read())
        db.close()
