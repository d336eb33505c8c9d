"""Serialization: save and restore exploration state.

A real analysis session accumulates valuable state — the constraint set
(the user's externalised knowledge) and the saved selections.  This module
persists both to a single JSON file so a session can be resumed, shared,
or replayed against the same dataset.

The data itself is *not* stored (it can be large and usually already lives
somewhere); a content fingerprint is stored instead, and restoring against
different data fails loudly rather than silently misapplying row indices.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.background import BackgroundModel
from repro.core.constraint import Constraint, ConstraintKind
from repro.core.session import ExplorationSession
from repro.errors import DataShapeError
from repro.feedback import feedback_from_dict

#: Format marker written into every file; bump on breaking changes.
#: Format 2 carries the typed feedback log (``feedback_log``) and the undo
#: stack (``feedback_groups``); format-1 files are no longer read.
FORMAT_VERSION = 2

#: Payload versions :func:`session_from_payload` accepts.
SUPPORTED_FORMATS = (2,)


def data_fingerprint(data: np.ndarray) -> str:
    """Stable content hash of a data matrix (shape + bytes)."""
    arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()[:32]


def constraint_to_dict(constraint: Constraint) -> dict:
    """JSON-serialisable form of one constraint."""
    return {
        "kind": constraint.kind.value,
        "rows": constraint.rows.tolist(),
        "w": constraint.w.tolist(),
        "label": constraint.label,
    }


def constraint_from_dict(payload: dict) -> Constraint:
    """Rebuild a constraint from its JSON form."""
    try:
        kind = ConstraintKind(payload["kind"])
        rows = np.asarray(payload["rows"], dtype=np.intp)
        w = np.asarray(payload["w"], dtype=np.float64)
        label = str(payload.get("label", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataShapeError(f"malformed constraint payload: {exc}") from exc
    return Constraint(kind, rows, w, label=label)


def session_to_payload(session: ExplorationSession) -> dict:
    """JSON-serialisable knowledge state of a session.

    Stored: data shape and fingerprint, objective, all constraints, the
    typed feedback log (:mod:`repro.feedback` objects, via their
    ``to_dict`` forms), the undo stack (feedback groups), and the
    history's feedback labels.  Not stored: the data, fitted parameters
    (cheap to refit), or RNG state.

    The ``history`` entries are an audit trail for humans reading the
    file; :func:`session_from_payload` does not replay them (views cannot
    be reconstructed without refitting every intermediate belief state),
    so a restored session starts a fresh iteration count.
    """
    return {
        "format": FORMAT_VERSION,
        "fingerprint": data_fingerprint(session.model.data),
        "shape": list(session.model.data.shape),
        "objective": session.objective,
        "constraints": [
            constraint_to_dict(c) for c in session.model.constraints
        ],
        "feedback_log": [fb.to_dict() for fb in session.feedback_log],
        "feedback_groups": [
            [label, count] for label, count in session.feedback_groups
        ],
        "history": [
            {
                "index": record.index,
                "constraints_added": list(record.constraints_added),
                "top_score": float(np.max(np.abs(record.view.scores))),
            }
            for record in session.history
        ],
    }


def session_from_payload(
    data: np.ndarray,
    payload: dict,
    standardize: bool = False,
    seed: int | None = 0,
) -> ExplorationSession:
    """Rebuild a session from :func:`session_to_payload` output.

    The caller must supply the *same* data matrix the session was saved
    from; shape and content are both verified because constraints are
    row-indexed and would silently misapply to different data.
    """
    if not isinstance(payload, dict):
        raise DataShapeError(
            f"expected a session payload dict, got {type(payload).__name__}"
        )
    if payload.get("format") not in SUPPORTED_FORMATS:
        raise DataShapeError(
            f"unsupported session format {payload.get('format')!r} "
            f"(supported: {SUPPORTED_FORMATS})"
        )
    missing = [
        key for key in ("feedback_log", "feedback_groups") if key not in payload
    ]
    if missing:
        raise DataShapeError(f"session payload lacks {', '.join(missing)}")
    objective = payload.get("objective", "pca")
    try:
        session = ExplorationSession(
            data, objective=objective, standardize=standardize, seed=seed
        )
    except ValueError as exc:
        raise DataShapeError(f"invalid session payload: {exc}") from exc

    shape = payload.get("shape")
    if shape is not None and tuple(shape) != session.model.data.shape:
        raise DataShapeError(
            f"session was saved from data of shape {tuple(shape)}, "
            f"but the supplied data has shape {session.model.data.shape}"
        )
    fingerprint = data_fingerprint(session.model.data)
    if payload.get("fingerprint") != fingerprint:
        raise DataShapeError(
            "session was saved from different data "
            f"(fingerprint {payload.get('fingerprint')!r} != {fingerprint!r})"
        )
    constraints = [constraint_from_dict(c) for c in payload.get("constraints", [])]
    session.model.add_constraints(constraints)
    groups = _restore_feedback_groups(payload, constraints)
    session._feedback_groups = groups  # noqa: SLF001 — intentional restore
    session._feedback_log = _restore_feedback_log(payload)  # noqa: SLF001
    return session


def _restore_feedback_log(payload: dict) -> list:
    """Rebuild the typed feedback log."""
    raw = payload.get("feedback_log")
    if not isinstance(raw, list):
        raise DataShapeError("feedback_log must be a list of feedback dicts")
    return [feedback_from_dict(item) for item in raw]


def _restore_feedback_groups(
    payload: dict, constraints: list[Constraint]
) -> list[tuple[str, int]]:
    """Rebuild the undo stack saved alongside the constraints."""
    raw = payload.get("feedback_groups")
    try:
        groups = [(str(label), int(count)) for label, count in raw]
    except (TypeError, ValueError) as exc:
        raise DataShapeError(
            f"malformed feedback_groups payload: {exc}"
        ) from exc
    # The undo stack may legitimately cover *fewer* constraints than are
    # stored (constraints added via the model API are saveable but not
    # undoable, matching live-session semantics); referencing more than
    # exist is corruption.
    if any(count < 0 for _, count in groups) or sum(
        count for _, count in groups
    ) > len(constraints):
        raise DataShapeError(
            "feedback_groups reference more constraints than are stored"
        )
    return groups


def save_session(session: ExplorationSession, path: str | Path) -> None:
    """Persist a session's knowledge state to a JSON file.

    See :func:`session_to_payload` for what is (and is not) stored.
    """
    Path(path).write_text(json.dumps(session_to_payload(session), indent=2))


def load_session(
    data: np.ndarray,
    path: str | Path,
    standardize: bool = False,
    seed: int | None = 0,
) -> ExplorationSession:
    """Restore a session against the same dataset.

    Parameters
    ----------
    data:
        The *same* data matrix the session was saved from.  Pass the raw
        (pre-standardisation) matrix and the same ``standardize`` flag used
        originally.
    path:
        File written by :func:`save_session`.
    standardize, seed:
        Session construction parameters (not stored in the file because
        they belong to the caller's environment, not the knowledge state).

    Raises
    ------
    DataShapeError
        If the file is malformed, or the data shape or fingerprint does not
        match — constraints are row-indexed, so applying them to different
        data would be silently wrong.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataShapeError(f"cannot read session file {path}: {exc}") from exc
    return session_from_payload(
        data, payload, standardize=standardize, seed=seed
    )


def constraint_set_fingerprint(constraints) -> str:
    """Stable hash of a constraint list (kinds, rows, vectors, order)."""
    digest = hashlib.sha256()
    for c in constraints:
        digest.update(c.kind.value.encode())
        digest.update(np.ascontiguousarray(c.rows).tobytes())
        digest.update(np.ascontiguousarray(c.w).tobytes())
    return digest.hexdigest()[:32]


def save_model_parameters(model: BackgroundModel, path: str | Path) -> None:
    """Persist fitted per-class parameters to an .npz file.

    Useful for caching expensive fits of large constraint sets; restore
    with :func:`load_model_parameters`.
    """
    params, classes = model._require_fit()  # noqa: SLF001 — intentional
    np.savez_compressed(
        Path(path),
        fingerprint=np.frombuffer(
            data_fingerprint(model.data).encode(), dtype=np.uint8
        ),
        constraint_fingerprint=np.frombuffer(
            constraint_set_fingerprint(model.constraints).encode(), dtype=np.uint8
        ),
        theta1=params.theta1,
        sigma=params.sigma,
        mean=params.mean,
        class_of_row=classes.class_of_row,
    )


def load_model_parameters(model: BackgroundModel, path: str | Path) -> None:
    """Restore fitted parameters saved by :func:`save_model_parameters`.

    The model must carry the same data and an equivalent constraint set
    (same row partition); the fingerprint and partition are verified.
    """
    from repro.core.equivalence import build_equivalence_classes
    from repro.core.parameters import ClassParameters
    from repro.core.solver import SolverReport

    with np.load(Path(path)) as blob:
        stored_fp = bytes(blob["fingerprint"]).decode()
        if stored_fp != data_fingerprint(model.data):
            raise DataShapeError(
                "parameter file was saved from different data"
            )
        stored_cfp = bytes(blob["constraint_fingerprint"]).decode()
        if stored_cfp != constraint_set_fingerprint(model.constraints):
            raise DataShapeError(
                "parameter file does not match the model's constraint set"
            )
        classes = build_equivalence_classes(
            model.n_rows, list(model.constraints)
        )
        if not np.array_equal(classes.class_of_row, blob["class_of_row"]):
            raise DataShapeError(
                "parameter file does not match the model's row partition"
            )
        params = ClassParameters(
            theta1=blob["theta1"].copy(),
            sigma=blob["sigma"].copy(),
            mean=blob["mean"].copy(),
        )
    model._params = params          # noqa: SLF001 — intentional restore
    model._classes = classes        # noqa: SLF001
    model._report = SolverReport(
        converged=True, sweeps=0, steps=0, elapsed=0.0, max_lambda_change=0.0
    )
    model._dirty = False            # noqa: SLF001
