"""End-to-end integration: explore, persist, restore, continue.

A realistic analyst workflow across process boundaries: run part of a
session, save the knowledge state to disk, restore it into a fresh process
(simulated by fresh objects) and continue exploring — the restored session
must behave exactly like the uninterrupted one.
"""

import numpy as np
import pytest

from repro.core.session import ExplorationSession
from repro.datasets import three_d_clusters, x5
from repro.feedback import ClusterFeedback
from repro.io import load_session, save_session


class TestReplayThreeD:
    @pytest.fixture
    def bundle(self):
        return three_d_clusters(seed=0)

    def test_interrupted_equals_uninterrupted(self, bundle, tmp_path):
        labels = bundle.labels
        blobs = [
            np.flatnonzero(labels == 0),
            np.flatnonzero(labels == 1),
            np.flatnonzero((labels == 2) | (labels == 3)),
        ]

        # Uninterrupted run.
        full = ExplorationSession(
            bundle.data, objective="pca", standardize=True, seed=0
        )
        full.current_view()
        for rows in blobs:
            full.apply(ClusterFeedback(rows=rows))
        final_full = full.current_view()

        # Interrupted run: stop after two markings, save, restore, finish.
        part = ExplorationSession(
            bundle.data, objective="pca", standardize=True, seed=0
        )
        part.current_view()
        part.apply(ClusterFeedback(rows=blobs[0]))
        part.apply(ClusterFeedback(rows=blobs[1]))
        path = tmp_path / "mid-session.json"
        save_session(part, path)

        resumed = load_session(bundle.data, path, standardize=True, seed=0)
        resumed.apply(ClusterFeedback(rows=blobs[2]))
        final_resumed = resumed.current_view()

        # Same belief state -> same scores and same axis subspace.
        np.testing.assert_allclose(
            np.abs(final_resumed.scores), np.abs(final_full.scores), atol=1e-8
        )
        # Axes may flip sign; compare the projection subspace.
        cross = final_resumed.axes @ final_full.axes.T
        np.testing.assert_allclose(np.abs(np.linalg.det(cross)), 1.0, atol=1e-6)

    def test_restored_knowledge_matches(self, bundle, tmp_path):
        session = ExplorationSession(
            bundle.data, objective="pca", standardize=True, seed=0
        )
        session.current_view()
        session.apply(ClusterFeedback(rows=bundle.rows_with_label(0)))
        session.current_view()
        before = session.model.knowledge_nats()
        path = tmp_path / "s.json"
        save_session(session, path)

        restored = load_session(bundle.data, path, standardize=True, seed=0)
        restored.current_view()
        assert restored.model.knowledge_nats() == pytest.approx(before, rel=1e-6)


class TestReplayX5:
    def test_objective_preserved(self, tmp_path):
        bundle = x5(n=400, seed=0)
        session = ExplorationSession(
            bundle.data, objective="ica", standardize=True, seed=0
        )
        session.current_view()
        session.apply(ClusterFeedback(rows=bundle.rows_with_label("A")))
        path = tmp_path / "x5.json"
        save_session(session, path)
        restored = load_session(bundle.data, path, standardize=True, seed=0)
        assert restored.objective == "ica"
        assert restored.model.n_constraints == session.model.n_constraints
