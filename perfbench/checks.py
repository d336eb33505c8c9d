"""Correctness checks on the replies, run after the timed region."""

from __future__ import annotations

import json
import math

import numpy as np

#: Largest deviation from unit length / orthogonality accepted for axes.
ORTHO_TOL = 1e-6

#: Objectives whose axes are orthonormal.  FastICA returns its components
#: as unit vectors in the input space (projection/fastica.py); they are
#: orthogonal only in FastICA's own PCA-whitened coordinates, so ICA axes
#: are checked for unit length and independence, not orthogonality.
ORTHONORMAL = frozenset({"pca", "kurtosis", "axis"})

#: Largest |server - in-process replay| accepted on the replayed
#: explore-cold session (knowledge_nats, axes, scores).  Measured
#: difference at this commit: 0.0; see README.md.
REPLAY_TOL = 1e-9

STATUS = {"create": 201, "view": 200, "feedback": 200, "delete": 200}

_VIEW_KEYS = ("objective", "axes", "scores", "all_scores", "top_score",
              "axis_labels", "session_id", "iteration", "knowledge_nats",
              "cache_hit")


def _finite(values) -> bool:
    arr = np.asarray(values, dtype=np.float64)
    return bool(np.isfinite(arr).all())


def _view_problems(p: dict, expect: dict) -> list[str]:
    missing = [k for k in _VIEW_KEYS if k not in p]
    if missing:
        return [f"view lacks {missing}"]
    out = []
    if p["objective"] != expect["objective"]:
        out.append(f"objective {p['objective']!r} != {expect['objective']!r}")
    axes = np.asarray(p["axes"], dtype=np.float64)
    if axes.shape != (2, expect["d"]) or not _finite(axes):
        out.append(f"axes shape {axes.shape} or non-finite")
    else:
        gram = axes @ axes.T
        if np.abs(np.diag(gram) - 1.0).max() > ORTHO_TOL:
            out.append("axes not unit length")
        if p["objective"] in ORTHONORMAL:
            if abs(gram[0, 1]) > ORTHO_TOL:
                out.append("axes not orthogonal")
        elif abs(gram[0, 1]) > 1.0 - ORTHO_TOL:
            out.append("axes are parallel")
    scores = np.abs(np.asarray(p["scores"], dtype=np.float64))
    every = np.abs(np.asarray(p["all_scores"], dtype=np.float64))
    if scores.shape != (2,) or not _finite(scores) or not _finite(every):
        out.append("scores malformed or non-finite")
    elif scores[0] < scores[1] or np.any(np.diff(every) > 0):
        out.append("scores not in descending order")
    elif not math.isclose(p["top_score"], scores[0], rel_tol=1e-12):
        out.append("top_score is not the largest score")
    if not (math.isfinite(p["knowledge_nats"]) and p["knowledge_nats"] > -1e-9):
        out.append(f"knowledge_nats {p['knowledge_nats']!r}")
    if p["session_id"] != expect["session_id"]:
        out.append("view answered for another session")
    if expect.get("detail"):
        surprise = np.asarray(p.get("row_surprise", ()), dtype=np.float64)
        projected = np.asarray(p.get("projected", ()), dtype=np.float64)
        if surprise.shape != (expect["n"],) or not _finite(surprise):
            out.append("row_surprise malformed")
        if projected.shape != (expect["n"], 2) or not _finite(projected):
            out.append("projected malformed")
    return out


def problems(ex) -> list[str]:
    """Everything wrong with one exchange (empty when it is correct)."""
    want = STATUS[ex.kind]
    if ex.status != want:
        return [f"{ex.kind} {ex.rid}: status {ex.status} != {want}: "
                f"{ex.body[:200]!r}"]
    try:
        p = json.loads(ex.body)
    except ValueError:
        return [f"{ex.kind} {ex.rid}: reply is not JSON"]
    e = ex.expect
    if ex.kind == "view":
        found = _view_problems(p, e)
    elif ex.kind == "create":
        found = [] if isinstance(p.get("session_id"), str) and (
            p.get("dataset") == e["dataset"]) else ["create reply malformed"]
    elif ex.kind == "feedback":
        found = []
        if p.get("shape") != [e["n"], e["d"]]:
            found.append(f"feedback on shape {p.get('shape')}")
        if len(p.get("applied", ())) != 1:
            found.append("feedback did not apply exactly one item")
    else:
        found = [] if p.get("deleted") is True else ["delete not confirmed"]
    return [f"{ex.kind} {ex.rid}: {msg}" for msg in found]


def canonical_view(body: bytes) -> str:
    """A view reply without what legitimately differs between twins: the
    session id, whether the fit was a cache hit, and solve wall time."""
    p = json.loads(body)
    for key in ("session_id", "cache_hit"):
        p.pop(key, None)
    if isinstance(p.get("solver"), dict):
        p["solver"].pop("elapsed", None)
    return json.dumps(p, sort_keys=True)


def twin_problems(sessions: list[list]) -> list[str]:
    """Each step's view must be bit-identical across twin sessions.

    ``sessions`` holds, per completed session, its view exchanges in
    script order.
    """
    out = []
    if len(sessions) < 2:
        return ["fewer than two complete twin sessions to compare"]
    reference = [canonical_view(ex.body) for ex in sessions[0]]
    for views in sessions[1:]:
        for step, ex in enumerate(views):
            if canonical_view(ex.body) != reference[step]:
                out.append(f"twin view {ex.rid} differs at step {step}")
    return out


def replay_difference(script: dict, views: list) -> float:
    """Largest |server - in-process replay| over the final view.

    Replays the session's script through an in-process
    ``ExplorationSession`` (the program's own reference loop, no HTTP, no
    solve cache) and compares knowledge_nats, axes and scores of the last
    view the server returned.
    """
    from repro.cli import DATASETS
    from repro.core.session import ExplorationSession
    from repro.feedback import feedback_from_dict

    session = ExplorationSession(
        DATASETS[script["dataset"]]().data,
        objective=script["objective"],
        standardize=script["standardize"],
        seed=script["seed"],
    )
    view = session.current_view()
    for item, objective in script["turns"]:
        session.apply_many([feedback_from_dict(item)])
        view = session.current_view(objective)
    last = json.loads(views[-1].body)
    return max(
        abs(session.model.knowledge_nats() - last["knowledge_nats"]),
        float(np.abs(view.axes - np.asarray(last["axes"])).max()),
        float(np.abs(view.scores - np.asarray(last["scores"])).max()),
    )
