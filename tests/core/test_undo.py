"""Tests for the undo facility (model, session and app levels)."""

import numpy as np
import pytest

from repro.core.background import BackgroundModel
from repro.core.session import ExplorationSession
from repro.errors import DataShapeError
from repro.feedback import (
    ClusterFeedback,
    MarginFeedback,
    ViewSelectionFeedback,
)
from repro.ui.app import SiderApp


class TestModelRemoveLast:
    def test_removes_and_returns(self, two_cluster_data):
        data, labels = two_cluster_data
        model = BackgroundModel(data)
        model.add_cluster_constraint(np.flatnonzero(labels == 0), label="a")
        n_group = model.n_constraints
        model.add_cluster_constraint(np.flatnonzero(labels == 1), label="b")
        removed = model.remove_last_constraints(n_group)
        assert len(removed) == n_group
        assert all(c.label.startswith("b") for c in removed)
        assert model.n_constraints == n_group

    def test_marks_dirty(self, two_cluster_data):
        data, labels = two_cluster_data
        model = BackgroundModel(data)
        model.add_cluster_constraint(np.flatnonzero(labels == 0))
        model.fit()
        model.remove_last_constraints(1)
        assert not model.is_fitted

    def test_zero_is_noop(self, gaussian_data):
        model = BackgroundModel(gaussian_data)
        model.fit()
        assert model.remove_last_constraints(0) == []
        assert model.is_fitted  # untouched

    def test_too_many_rejected(self, gaussian_data):
        model = BackgroundModel(gaussian_data)
        with pytest.raises(DataShapeError):
            model.remove_last_constraints(1)

    def test_negative_rejected(self, gaussian_data):
        model = BackgroundModel(gaussian_data)
        with pytest.raises(DataShapeError):
            model.remove_last_constraints(-1)


class TestSessionUndo:
    def test_undo_restores_previous_belief_state(self, two_cluster_data):
        data, labels = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.current_view()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 0), label="keep"))
        view_after_first = session.current_view()
        scores_after_first = np.abs(view_after_first.scores).copy()

        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 1), label="oops"))
        session.current_view()
        undone = session.undo_last_feedback()
        assert undone == "oops"
        restored = session.current_view()
        np.testing.assert_allclose(
            np.abs(restored.scores), scores_after_first, atol=1e-8
        )

    def test_undo_empty_returns_none(self, gaussian_data):
        session = ExplorationSession(gaussian_data, seed=0)
        assert session.undo_last_feedback() is None

    def test_undo_all_feedback_returns_to_prior(self, two_cluster_data):
        data, labels = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.current_view()
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 0)))
        session.apply(ClusterFeedback(rows=np.flatnonzero(labels == 1)))
        session.undo_last_feedback()
        session.undo_last_feedback()
        session.current_view()
        assert session.model.n_constraints == 0
        assert session.model.knowledge_nats() == pytest.approx(0.0, abs=1e-9)

    def test_undo_mixed_action_kinds(self, gaussian_data):
        session = ExplorationSession(gaussian_data, seed=0)
        session.apply(MarginFeedback())
        n_margins = session.model.n_constraints
        session.current_view()
        session.apply(ViewSelectionFeedback(rows=[0, 1, 2], label="sel"))
        assert session.model.n_constraints == n_margins + 4
        assert session.undo_last_feedback() == "sel"
        assert session.model.n_constraints == n_margins
        assert session.undo_last_feedback() == "margins"
        assert session.model.n_constraints == 0

    def test_history_labels_cleaned(self, two_cluster_data):
        data, labels = two_cluster_data
        session = ExplorationSession(data, seed=0)
        session.current_view()
        session.apply(
            ClusterFeedback(rows=np.flatnonzero(labels == 0), label="mistake")
        )
        session.undo_last_feedback()
        assert all(
            "mistake" not in record.constraints_added
            for record in session.history
        )


class TestAppUndo:
    def test_undo_button_flow(self, two_cluster_data):
        data, labels = two_cluster_data
        app = SiderApp(data, seed=0)
        frame0 = app.render()
        score0 = float(np.max(np.abs(frame0.view.scores)))

        app.select_rows(np.flatnonzero(labels == 0))
        app.add_cluster_constraint(label="blob")
        app.update_background()
        assert app.undo() == "blob"
        app.update_background()
        frame_back = app.render()
        assert float(np.max(np.abs(frame_back.view.scores))) == pytest.approx(
            score0, abs=1e-8
        )
        assert "undo 'blob'" in app.state.action_log

    def test_undo_nothing(self, gaussian_data):
        app = SiderApp(gaussian_data, seed=0)
        assert app.undo() is None
