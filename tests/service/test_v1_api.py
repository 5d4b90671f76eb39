"""Tests for the versioned /v1 service API.

Covers: objective-registry discovery and custom objectives end-to-end
over HTTP, the batch feedback endpoint (mixed kinds, one fit), 405
semantics on /v1 routes, feature-name propagation into view payloads,
and checkpoint/resume of the typed feedback log — and that nothing is
served outside /v1.
"""

import numpy as np
import pytest

from repro.core.background import BackgroundModel
from repro.feedback import (
    ClusterFeedback,
    MarginFeedback,
    ViewSelectionFeedback,
)
from repro.projection import registry
from repro.service.api import ServiceAPI
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.manager import SessionManager
from repro.service.server import start_background
from repro.store import SQLiteStore


@pytest.fixture
def api(two_cluster_data, tmp_path):
    data, _ = two_cluster_data
    store = SQLiteStore(tmp_path / "sessions.db", fsync="off")
    yield ServiceAPI(SessionManager({"two": data}, store=store))
    store.close()


@pytest.fixture
def fit_counter(monkeypatch):
    calls = []
    original = BackgroundModel.fit

    def counting_fit(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BackgroundModel, "fit", counting_fit)
    return calls


class _NamedBundle:
    """Minimal dataset-bundle shape: .data plus .feature_names."""

    def __init__(self, data, feature_names):
        self.data = data
        self.feature_names = tuple(feature_names)


class _TopVariance:
    """Custom test objective: raw-variance ranking of the whitened axes."""

    name = "top-variance"
    description = "axis-aligned directions ranked by raw variance"

    def find_directions(self, whitened, rng):
        return np.eye(np.asarray(whitened).shape[1])

    def score(self, whitened, directions):
        arr = np.asarray(whitened, dtype=np.float64)
        return (arr @ np.atleast_2d(directions).T).var(axis=0, ddof=1)


@pytest.fixture
def custom_objective():
    obj = registry.register(_TopVariance())
    try:
        yield obj
    finally:
        registry.unregister(obj.name)


class TestVersionedRoutes:
    def test_unversioned_paths_answer_404(self, api):
        assert api.dispatch("GET", "/v1/health") == (200, {"status": "ok"})
        for method, path in [
            ("GET", "/health"),
            ("GET", "/datasets"),
            ("POST", "/sessions"),
            ("GET", "/sessions"),
            ("POST", "/admin/drain"),
        ]:
            status, payload = api.dispatch(method, path, body={"dataset": "two"})
            assert status == 404, (method, path)
            assert payload == {"error": f"no route {method} {path}"}
        # Nothing was created or drained through the unversioned paths.
        assert api.dispatch("GET", "/v1/sessions")[1] == {"sessions": []}
        assert not api.admission.draining

    def test_full_loop_under_v1(self, api, two_cluster_data):
        _, labels = two_cluster_data
        status, created = api.dispatch(
            "POST", "/v1/sessions", body={"dataset": "two"}
        )
        assert status == 201
        sid = created["session_id"]
        status, view = api.dispatch("GET", f"/v1/sessions/{sid}/view")
        assert status == 200
        rows = [int(r) for r in np.flatnonzero(labels == 0)]
        status, stats = api.dispatch(
            "POST",
            f"/v1/sessions/{sid}/feedback",
            body={"feedback": [{"kind": "cluster", "rows": rows, "label": "L"}]},
        )
        assert (status, stats["applied"]) == (200, ["L"])
        status, undone = api.dispatch("POST", f"/v1/sessions/{sid}/undo")
        assert (status, undone["undone"]) == (200, "L")
        assert api.dispatch("DELETE", f"/v1/sessions/{sid}")[0] == 200

    def test_objectives_discovery(self, api):
        status, payload = api.dispatch("GET", "/v1/objectives")
        assert status == 200
        names = [row["name"] for row in payload["objectives"]]
        assert {"pca", "ica", "kurtosis", "axis"} <= set(names)
        assert all(row["description"] for row in payload["objectives"])

    def test_constraints_route_is_gone(self, api, two_cluster_data):
        _, labels = two_cluster_data
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        # The pre-/v1 single-item feedback route and its body shape.
        route = "constraints"
        body = {
            "kind": "cluster",
            "rows": [int(r) for r in np.flatnonzero(labels == 0)],
            "label": "left",
        }
        for path in (f"/v1/sessions/{sid}/{route}", f"/sessions/{sid}/{route}"):
            assert api.dispatch("POST", path, body=body)[0] == 404
        assert api.dispatch("GET", f"/v1/sessions/{sid}")[1]["feedback"] == []


class TestMethodNotAllowed:
    def test_405_on_v1_with_allow_list(self, api):
        status, payload = api.dispatch("PUT", "/v1/sessions")
        assert status == 405
        assert payload["allow"] == ["GET", "POST"]

        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        status, payload = api.dispatch("GET", f"/v1/sessions/{sid}/feedback")
        assert status == 405
        assert payload["allow"] == ["POST"]

        status, payload = api.dispatch("POST", "/v1/health")
        assert status == 405
        assert payload["allow"] == ["GET"]

    def test_legacy_paths_keep_blanket_404(self, api):
        # Outside /v1 there are no routes, so no 405 either.
        assert api.dispatch("PUT", "/sessions")[0] == 404
        assert api.dispatch("GET", "/sessions/x/feedback")[0] == 404

    def test_unknown_v1_path_still_404(self, api):
        assert api.dispatch("GET", "/v1/bogus")[0] == 404
        assert api.dispatch("GET", "/v1/sessions/a/b/c")[0] == 404


class TestBatchFeedback:
    def test_mixed_batch_single_fit(self, api, two_cluster_data, fit_counter):
        _, labels = two_cluster_data
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        rows = [int(r) for r in np.flatnonzero(labels == 0)]
        status, stats = api.dispatch(
            "POST",
            f"/v1/sessions/{sid}/feedback",
            body={
                "feedback": [
                    {"kind": "cluster", "rows": rows, "label": "left"},
                    {"kind": "view", "rows": rows, "label": "left-2d"},
                    {"kind": "margins"},
                ]
            },
        )
        assert status == 200
        assert stats["applied"] == ["left", "left-2d", "margins"]
        assert stats["feedback"] == ["left", "left-2d", "margins"]
        # One fit resolved the view axes; nothing else hit the solver.
        assert len(fit_counter) == 1

    def test_all_four_kinds_in_one_batch(self, api, two_cluster_data):
        _, labels = two_cluster_data
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        rows = [int(r) for r in np.flatnonzero(labels == 0)]
        status, stats = api.dispatch(
            "POST",
            f"/v1/sessions/{sid}/feedback",
            body={
                "feedback": [
                    {"kind": "cluster", "rows": rows},
                    {"kind": "view", "rows": rows},
                    {"kind": "margins"},
                    {"kind": "covariance"},
                ]
            },
        )
        assert status == 200
        assert len(stats["applied"]) == 4
        assert len(stats["feedback_log"]) == 4

    def test_malformed_batch_applies_nothing(self, api, two_cluster_data):
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        status, _ = api.dispatch(
            "POST",
            f"/v1/sessions/{sid}/feedback",
            body={
                "feedback": [
                    {"kind": "cluster", "rows": [0, 1]},
                    {"kind": "telepathy"},
                ]
            },
        )
        assert status == 400
        assert api.dispatch("GET", f"/v1/sessions/{sid}")[1]["feedback"] == []

    def test_out_of_range_batch_rolls_back(self, api, two_cluster_data):
        data, _ = two_cluster_data
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        status, _ = api.dispatch(
            "POST",
            f"/v1/sessions/{sid}/feedback",
            body={
                "feedback": [
                    {"kind": "cluster", "rows": [0, 1]},
                    {"kind": "cluster", "rows": [data.shape[0] + 7]},
                ]
            },
        )
        assert status == 400
        assert api.dispatch("GET", f"/v1/sessions/{sid}")[1]["n_constraints"] == 0

    @pytest.mark.parametrize("rows", [[0.5, 1.9, 2.2], ["3", "4"], [True, 2]])
    def test_non_integer_rows_are_bad_request(self, api, rows):
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        status, payload, kind = api._dispatch(
            "POST",
            f"/v1/sessions/{sid}/feedback",
            body={"feedback": [{"kind": "cluster", "rows": rows}]},
            query={},
        )
        assert (status, kind) == (400, "bad_request")
        assert payload["error"].startswith("DataShapeError")
        assert api.dispatch("GET", f"/v1/sessions/{sid}")[1]["n_constraints"] == 0

    def test_empty_batch_rejected(self, api, two_cluster_data):
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        assert (
            api.dispatch(
                "POST", f"/v1/sessions/{sid}/feedback", body={"feedback": []}
            )[0]
            == 400
        )
        assert (
            api.dispatch("POST", f"/v1/sessions/{sid}/feedback", body={})[0]
            == 400
        )


class TestCustomObjective:
    def test_unknown_objective_still_400(self, api):
        assert (
            api.dispatch(
                "POST", "/v1/sessions", body={"dataset": "two", "objective": "x"}
            )[0]
            == 400
        )

    def test_registered_objective_usable_end_to_end(
        self, two_cluster_data, custom_objective
    ):
        """Acceptance walk: register in user code, use through ServiceClient."""
        data, _ = two_cluster_data
        server = start_background(SessionManager({"two": data}))
        try:
            client = ServiceClient(server.base_url)
            listed = client.objectives()
            assert custom_objective.name in [row["name"] for row in listed]

            sid = client.create_session("two", objective=custom_objective.name)
            view = client.view(sid)
            assert view["objective"] == custom_objective.name
            # The custom objective is axis-aligned, so axes are unit vectors.
            assert np.allclose(np.abs(np.asarray(view["axes"])).sum(axis=1), 1.0)

            # Per-request override through the query parameter too.
            again = client.view(sid, objective=custom_objective.name)
            assert again["objective"] == custom_objective.name
        finally:
            server.stop()

    def test_unregistered_objective_rejected_over_http(self, two_cluster_data):
        data, _ = two_cluster_data
        server = start_background(SessionManager({"two": data}))
        try:
            client = ServiceClient(server.base_url)
            with pytest.raises(ServiceClientError) as err:
                client.create_session("two", objective="not-a-thing")
            assert err.value.status == 400
        finally:
            server.stop()


class TestFeatureNames:
    def test_axis_labels_use_real_attribute_names(self, two_cluster_data):
        data, _ = two_cluster_data
        bundle = _NamedBundle(data, ["height", "weight", "age"])
        api = ServiceAPI(SessionManager({"named": bundle}))
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "named"})[1][
            "session_id"
        ]
        status, view = api.dispatch("GET", f"/v1/sessions/{sid}/view")
        assert status == 200
        assert view["feature_names"] == ["height", "weight", "age"]
        assert any(
            name in view["axis_labels"][0]
            for name in ("height", "weight", "age")
        )
        assert "X1" not in view["axis_labels"][0]

    def test_plain_arrays_keep_placeholder_labels(self, api, two_cluster_data):
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        _, view = api.dispatch("GET", f"/v1/sessions/{sid}/view")
        assert "feature_names" not in view
        assert "X" in view["axis_labels"][0]


class TestClientBatch:
    def test_client_posts_typed_and_dict_feedback(self, two_cluster_data):
        data, labels = two_cluster_data
        server = start_background(SessionManager({"two": data}))
        rows = tuple(int(r) for r in np.flatnonzero(labels == 0))
        try:
            client = ServiceClient(server.base_url)
            sid = client.create_session("two")
            stats = client.apply_feedback(
                sid,
                [
                    ClusterFeedback(rows=rows, label="left"),
                    ViewSelectionFeedback(rows=rows, label="left-2d"),
                    MarginFeedback(),
                    {"kind": "covariance"},
                ],
            )
            assert stats["applied"][:2] == ["left", "left-2d"]
            assert stats["n_constraints"] > 0
            assert client.undo(sid) == "1-cluster"
        finally:
            server.stop()

    def test_mark_wrappers_post_one_item_batches(self, two_cluster_data):
        data, labels = two_cluster_data
        server = start_background(SessionManager({"two": data}))
        rows = [int(r) for r in np.flatnonzero(labels == 0)]
        try:
            client = ServiceClient(server.base_url)
            sid = client.create_session("two")
            client.view(sid)
            stats = client.mark_cluster(sid, rows, label="left")
            assert stats["applied"] == ["left"]
            stats = client.mark_view_selection(sid, rows, label="left-2d")
            assert stats["applied"] == ["left-2d"]
            assert stats["feedback"] == ["left", "left-2d"]
            assert client.undo(sid) == "left-2d"
        finally:
            server.stop()


class TestFeedbackKindRegistry:
    def test_duplicate_kind_rejected(self):
        from repro.feedback import ClusterFeedback as Builtin
        from repro.feedback import Feedback, register_feedback

        class Impostor(Feedback):
            kind = "cluster"

        with pytest.raises(ValueError):
            register_feedback(Impostor)
        # Re-registering the same class is a harmless no-op.
        assert register_feedback(Builtin) is Builtin


class TestCheckpointResume:
    def test_feedback_log_survives_manager_resume(
        self, two_cluster_data, tmp_path
    ):
        data, labels = two_cluster_data
        store = SQLiteStore(tmp_path / "sessions.db", fsync="off")
        manager = SessionManager({"two": data}, store=store)
        api = ServiceAPI(manager)
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        rows = [int(r) for r in np.flatnonzero(labels == 0)]
        api.dispatch(
            "POST",
            f"/v1/sessions/{sid}/feedback",
            body={
                "feedback": [
                    {"kind": "cluster", "rows": rows, "label": "left"},
                    {"kind": "margins"},
                ]
            },
        )
        assert api.dispatch("POST", f"/v1/sessions/{sid}/checkpoint")[0] == 200

        fresh = ServiceAPI(SessionManager({"two": data}, store=store))
        status, stats = fresh.dispatch("GET", f"/v1/sessions/{sid}")
        assert status == 200
        assert [item["kind"] for item in stats["feedback_log"]] == [
            "cluster",
            "margins",
        ]
        assert stats["feedback"] == ["left", "margins"]
        status, undone = fresh.dispatch("POST", f"/v1/sessions/{sid}/undo")
        assert (status, undone["undone"]) == (200, "margins")


class TestDetailView:
    """The ?detail=1 observation payload exploration policies run on."""

    def test_plain_view_has_knowledge_but_no_arrays(self, api):
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        status, view = api.dispatch("GET", f"/v1/sessions/{sid}/view")
        assert status == 200
        assert view["knowledge_nats"] == pytest.approx(0.0)
        assert "row_surprise" not in view
        assert "projected" not in view

    def test_detail_view_carries_the_observation(self, api, two_cluster_data):
        data, labels = two_cluster_data
        sid = api.dispatch("POST", "/v1/sessions", body={"dataset": "two"})[1][
            "session_id"
        ]
        status, view = api.dispatch(
            "GET", f"/v1/sessions/{sid}/view", query={"detail": "1"}
        )
        assert status == 200
        assert len(view["row_surprise"]) == data.shape[0]
        assert len(view["projected"]) == data.shape[0]
        assert len(view["projected"][0]) == 2
        assert view["knowledge_nats"] == pytest.approx(0.0)

        rows = [int(r) for r in np.flatnonzero(labels == 0)]
        api.dispatch(
            "POST",
            f"/v1/sessions/{sid}/feedback",
            body={"feedback": [{"kind": "cluster", "rows": rows}]},
        )
        status, after = api.dispatch(
            "GET", f"/v1/sessions/{sid}/view", query={"detail": "true"}
        )
        assert status == 200
        assert after["knowledge_nats"] > 0.0

    def test_detail_over_http_client(self, two_cluster_data):
        data, _ = two_cluster_data
        server = start_background(SessionManager({"two": data}))
        try:
            client = ServiceClient(server.base_url)
            sid = client.create_session("two")
            payload = client.view(sid, detail=True)
            assert len(payload["row_surprise"]) == data.shape[0]
            assert payload["knowledge_nats"] == pytest.approx(0.0)
            plain = client.view(sid)
            assert "row_surprise" not in plain
        finally:
            server.stop()
