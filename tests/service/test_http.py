"""End-to-end tests of the HTTP service (API layer and live server)."""

import numpy as np
import pytest

from repro.service.api import ServiceAPI
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.manager import SessionManager
from repro.service.server import start_background
from repro.service.store import DirectoryStore, MemoryStore


@pytest.fixture
def api(two_cluster_data):
    data, _ = two_cluster_data
    return ServiceAPI(SessionManager({"two": data}, store=MemoryStore()))


class TestDispatch:
    """Route-level behaviour, no sockets involved."""

    def test_health_and_datasets(self, api):
        assert api.dispatch("GET", "/v1/health") == (200, {"status": "ok"})
        assert api.dispatch("GET", "/v1/datasets")[1] == {"datasets": ["two"]}

    def test_create_view_constrain_cycle(self, api, two_cluster_data):
        _, labels = two_cluster_data
        status, created = api.dispatch(
            "POST", "/v1/sessions", body={"dataset": "two"}
        )
        assert status == 201
        sid = created["session_id"]

        status, view = api.dispatch("GET", f"/v1/sessions/{sid}/view")
        assert status == 200
        assert len(view["axes"]) == 2
        assert view["iteration"] == 0

        rows = [int(r) for r in np.flatnonzero(labels == 0)]
        status, stats = api.dispatch(
            "POST",
            f"/v1/sessions/{sid}/feedback",
            body={"feedback": [{"kind": "cluster", "rows": rows, "label": "left"}]},
        )
        assert status == 200
        assert stats["feedback"] == ["left"]

        status, view2 = api.dispatch("GET", f"/v1/sessions/{sid}/view")
        assert view2["top_score"] != view["top_score"]

        status, undone = api.dispatch("POST", f"/v1/sessions/{sid}/undo")
        assert (status, undone["undone"]) == (200, "left")

    def test_unknown_session_404(self, api):
        assert api.dispatch("GET", "/v1/sessions/missing/view")[0] == 404
        assert api.dispatch("DELETE", "/v1/sessions/missing")[0] == 404

    def test_unknown_dataset_404(self, api):
        status, payload = api.dispatch(
            "POST", "/v1/sessions", body={"dataset": "nope"}
        )
        assert status == 404
        assert "unknown dataset" in payload["error"]

    def test_bad_requests_400(self, api):
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        assert api.dispatch("POST", "/v1/sessions", body={})[0] == 400
        assert (
            api.dispatch(
                "POST", "/v1/sessions", body={"dataset": "two", "objective": "x"}
            )[0]
            == 400
        )
        assert (
            api.dispatch(
                "POST",
                f"/v1/sessions/{sid}/feedback",
                body={"feedback": [{"kind": "cluster", "rows": []}]},
            )[0]
            == 400
        )
        assert (
            api.dispatch(
                "POST",
                f"/v1/sessions/{sid}/feedback",
                body={"feedback": [{"kind": "bogus", "rows": [1]}]},
            )[0]
            == 400
        )
        assert (
            api.dispatch(
                "GET", f"/v1/sessions/{sid}/view", query={"objective": "bad"}
            )[0]
            == 400
        )

    def test_non_integer_rows_400_not_dropped_connection(self, api):
        # JSON parses 1e999 as float('inf'); int() then raises
        # OverflowError, which must surface as a 400 JSON error rather
        # than escaping the dispatcher.
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        status, payload = api.dispatch(
            "POST",
            f"/v1/sessions/{sid}/feedback",
            body={"feedback": [{"kind": "cluster", "rows": [float("inf")]}]},
        )
        assert status == 400
        assert "error" in payload

    def test_duplicate_session_409(self, api):
        body = {"dataset": "two", "session_id": "dup"}
        assert api.dispatch("POST", "/v1/sessions", body=body)[0] == 201
        assert api.dispatch("POST", "/v1/sessions", body=body)[0] == 409

    def test_unknown_route_404(self, api):
        assert api.dispatch("GET", "/bogus")[0] == 404
        assert api.dispatch("PUT", "/sessions")[0] == 404
        assert api.dispatch("GET", "/sessions/a/b/c")[0] == 404
        assert api.dispatch("GET", "/v1/sessions/a/b/c")[0] == 404
        assert api.dispatch("GET", "/v1/workers")[0] == 404


class TestLiveServer:
    """The acceptance-criteria walk: full loop over real HTTP, then a
    restart-and-resume against a fresh manager."""

    def test_full_interactive_loop_with_restart(
        self, two_cluster_data, tmp_path
    ):
        data, labels = two_cluster_data
        store_dir = tmp_path / "checkpoints"
        rows = [int(r) for r in np.flatnonzero(labels == 0)]

        manager = SessionManager(
            {"two": data}, store=DirectoryStore(store_dir)
        )
        server = start_background(ServiceAPI(manager))
        try:
            client = ServiceClient(server.base_url)
            assert client.health() == {"status": "ok"}

            sid = client.create_session("two")
            first = client.view(sid)
            assert len(first["axes"]) == 2

            client.mark_cluster(sid, rows, label="left")
            updated = client.view(sid)
            assert updated["top_score"] != first["top_score"]
            assert updated["iteration"] == 1

            client.checkpoint(sid)
            expected_scores = np.abs(np.asarray(updated["scores"]))
        finally:
            server.stop()

        # "Server restart": a brand-new manager over the same store dir.
        fresh = SessionManager({"two": data}, store=DirectoryStore(store_dir))
        server2 = start_background(ServiceAPI(fresh))
        try:
            client2 = ServiceClient(server2.base_url)
            listed = client2.list_sessions()
            assert [s["session_id"] for s in listed] == [sid]
            assert listed[0]["in_memory"] is False

            resumed = client2.view(sid)
            np.testing.assert_allclose(
                np.abs(np.asarray(resumed["scores"])),
                expected_scores,
                atol=1e-8,
            )
            # Knowledge state survived: the feedback is still undoable.
            assert client2.session(sid)["feedback"] == ["left"]
            assert client2.undo(sid) == "left"

            client2.delete_session(sid)
            with pytest.raises(ServiceClientError) as err:
                client2.session(sid)
            assert err.value.status == 404
        finally:
            server2.stop()

    def test_concurrent_clients(self, two_cluster_data):
        import threading

        data, labels = two_cluster_data
        manager = SessionManager({"two": data})
        server = start_background(ServiceAPI(manager))
        rows = [int(r) for r in np.flatnonzero(labels == 0)]
        errors = []

        def drive():
            try:
                client = ServiceClient(server.base_url)
                sid = client.create_session("two")
                client.view(sid)
                client.mark_cluster(sid, rows)
                client.view(sid)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            threads = [threading.Thread(target=drive) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert manager.stats()["created"] == 4
            # A follow-up client replaying the same feedback must reuse the
            # solves the concurrent clients populated the cache with.
            client = ServiceClient(server.base_url)
            sid = client.create_session("two")
            client.mark_cluster(sid, rows)
            assert client.view(sid)["cache_hit"] is True
        finally:
            server.stop()

    def test_malformed_body_rejected(self, two_cluster_data):
        import json
        import urllib.error
        import urllib.request

        data, _ = two_cluster_data
        server = start_background(SessionManager({"two": data}))
        try:
            request = urllib.request.Request(
                server.base_url + "/v1/sessions",
                data=b"{not json",
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400
            payload = json.loads(err.value.read())
            assert "not JSON" in payload["error"]
        finally:
            server.stop()


class TestContentLength:
    """A malformed Content-Length answers 400 without reading the body."""

    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_malformed_length_answers_400_and_closes(
        self, two_cluster_data, value
    ):
        import json
        import socket

        data, _ = two_cluster_data
        server = start_background(SessionManager({"two": data}))
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    (
                        "POST /v1/sessions HTTP/1.1\r\n"
                        f"Host: {host}\r\n"
                        f"Content-Length: {value}\r\n"
                        "\r\n"
                    ).encode()
                )
                # The server closes after the reply, so reading to EOF
                # returns; a handler blocked on the body would time out.
                raw = b""
                while chunk := sock.recv(65536):
                    raw += chunk
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400")
            assert "Content-Length" in json.loads(body)["error"]
        finally:
            server.stop()
