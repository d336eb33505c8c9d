"""Tests for the session checkpoint stores (memory and on-disk)."""

import numpy as np
import pytest

from repro.core.session import ExplorationSession
from repro.feedback import ClusterFeedback
from repro.io import session_from_payload, session_to_payload
from repro.service.store import (
    DirectoryStore,
    MemoryStore,
    SessionNotFoundError,
    StoreError,
    validate_session_id,
)


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    """Each test runs against both backends."""
    if request.param == "memory":
        return MemoryStore()
    return DirectoryStore(tmp_path / "checkpoints")


class TestSessionIds:
    def test_safe_ids_accepted(self):
        for sid in ("abc", "A-1", "a.b_c-d", "0" * 128):
            assert validate_session_id(sid) == sid

    @pytest.mark.parametrize(
        "bad", ["", "a/b", "../x", ".hidden", "-lead", "a" * 129, "sp ace", None]
    )
    def test_unsafe_ids_rejected(self, bad):
        with pytest.raises(StoreError):
            validate_session_id(bad)


class TestStoreBasics:
    def test_put_get_roundtrip(self, store):
        store.put("s1", {"dataset": "x", "n": 3})
        assert store.get("s1") == {"dataset": "x", "n": 3}

    def test_missing_id_raises(self, store):
        with pytest.raises(SessionNotFoundError):
            store.get("nope")

    def test_contains_and_list(self, store):
        store.put("b", {"v": 1})
        store.put("a", {"v": 2})
        assert "a" in store and "zz" not in store
        assert store.list_ids() == ["a", "b"]

    def test_overwrite(self, store):
        store.put("s", {"v": 1})
        store.put("s", {"v": 2})
        assert store.get("s") == {"v": 2}

    def test_delete_is_idempotent(self, store):
        store.put("s", {"v": 1})
        store.delete("s")
        store.delete("s")
        assert "s" not in store

    def test_payload_isolated_from_caller(self, store):
        payload = {"nested": {"rows": [1, 2]}}
        store.put("s", payload)
        payload["nested"]["rows"].append(99)
        assert store.get("s") == {"nested": {"rows": [1, 2]}}

    def test_non_json_payload_rejected(self, store):
        with pytest.raises(StoreError):
            store.put("s", {"bad": np.float64})


class TestDirectoryStore:
    def test_corrupt_file_raises_store_error(self, tmp_path):
        store = DirectoryStore(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(StoreError):
            store.get("bad")

    def test_survives_reopen(self, tmp_path):
        DirectoryStore(tmp_path).put("s", {"v": 7})
        assert DirectoryStore(tmp_path).get("s") == {"v": 7}


class TestSessionRoundtripThroughStore:
    """Save -> store -> resume keeps the full knowledge state (satellite)."""

    def _explored_session(self, data, labels):
        session = ExplorationSession(data, objective="pca", seed=0)
        session.current_view()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 0), label="left"))
        session.current_view()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 1), label="right"))
        return session

    def test_constraints_and_undo_history_survive(
        self, store, two_cluster_data
    ):
        data, labels = two_cluster_data
        session = self._explored_session(data, labels)
        store.put("sess", session_to_payload(session))

        restored = session_from_payload(data, store.get("sess"), seed=0)
        assert restored.model.n_constraints == session.model.n_constraints
        assert restored.feedback_groups == session.feedback_groups
        # The undo stack is live: retracting pops the same action.
        assert restored.undo_last_feedback() == "right"
        assert session.undo_last_feedback() == "right"
        assert restored.model.n_constraints == session.model.n_constraints

    def test_next_view_identical_after_resume(self, store, two_cluster_data):
        data, labels = two_cluster_data
        session = self._explored_session(data, labels)
        expected = session.current_view()
        store.put("sess", session_to_payload(session))

        restored = session_from_payload(data, store.get("sess"), seed=0)
        resumed_view = restored.current_view()
        np.testing.assert_allclose(
            np.abs(resumed_view.scores), np.abs(expected.scores), atol=1e-8
        )
        np.testing.assert_allclose(
            np.abs(resumed_view.axes), np.abs(expected.axes), atol=1e-6
        )


class TestDirectoryStoreDurability:
    """Checkpoint writes are crash-safe: fsync file, replace, fsync dir."""

    def test_put_fsyncs_tmp_file_before_replace(self, tmp_path, monkeypatch):
        import os as _os

        events = []
        real_fsync = _os.fsync
        real_replace = _os.replace
        monkeypatch.setattr(
            _os, "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            _os, "replace",
            lambda a, b: (events.append("replace"), real_replace(a, b))[1],
        )
        DirectoryStore(tmp_path / "ckpt").put("s", {"v": 1})
        # File contents are durable before the rename publishes them, and
        # the directory entry is durable after.
        assert "replace" in events
        replace_at = events.index("replace")
        assert "fsync" in events[:replace_at]
        assert "fsync" in events[replace_at + 1:]

    def test_no_tmp_file_left_behind(self, tmp_path):
        root = tmp_path / "ckpt"
        store = DirectoryStore(root)
        store.put("s", {"v": 1})
        leftovers = [p.name for p in root.iterdir() if ".tmp" in p.name]
        assert leftovers == []
