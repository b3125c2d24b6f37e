"""End-to-end service tests: a real server, real HTTP clients in threads.

The centerpiece is the concurrency contract: many clients submitting
overlapping sweeps at once get results bit-identical to a direct
:func:`run_sweep`, with each distinct sweep executing at most once and
``/metrics`` staying valid Prometheus text throughout.
"""

import http.client
import json
import socket
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import pytest

from repro.experiments.cache import SweepCache
from repro.experiments.parallel import run_sweep
from repro.experiments.specs import EstimatorSpec, RunSpec, WorkloadSpec
from repro.obs import read_trace
from repro.service import ServiceConfig, ServiceThread
from repro.service.schemas import spec_to_dict
from repro.service.smoke import validate_metrics

N_JOBS = 150


def make_spec(load, estimator="none"):
    return RunSpec(
        workload=WorkloadSpec(n_jobs=N_JOBS, load=load),
        estimator=EstimatorSpec(name=estimator),
        label=f"{estimator}@{load:g}",
    )


def submission(specs):
    return {"specs": [spec_to_dict(s) for s in specs]}


def request(address, method, path, body=None, timeout=300):
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def get_json(address, path):
    status, body = request(address, "GET", path)
    return status, json.loads(body)


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(port=0, cache=SweepCache(tmp_path / "cache"))
    with ServiceThread(config) as address:
        yield address


class TestEndpoints:
    def test_healthz(self, server):
        status, doc = get_json(server, "/healthz")
        assert status == 200
        assert doc["status"] == "ok"

    def test_unknown_path_is_404(self, server):
        assert request(server, "GET", "/nope")[0] == 404
        assert request(server, "GET", "/runs/doesnotexist")[0] == 404
        assert request(server, "GET", "/runs/doesnotexist/result")[0] == 404

    def test_wrong_method_is_405(self, server):
        assert request(server, "DELETE", "/runs")[0] == 405
        assert request(server, "POST", "/healthz")[0] == 405

    def test_bad_submissions_are_400(self, server):
        assert request(server, "POST", "/runs", body={"specs": []})[0] == 400
        assert request(server, "POST", "/runs", body={})[0] == 400
        status, body = request(
            server,
            "POST",
            "/runs",
            body={"specs": [{"estimator": {"name": "bogus"}}]},
        )
        assert status == 400
        assert "bogus" in json.loads(body)["error"]

    def test_invalid_json_body_is_400(self, server):
        conn = http.client.HTTPConnection(*server, timeout=60)
        try:
            conn.request("POST", "/runs", body=b"{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_negative_content_length_is_400(self, server):
        with socket.create_connection(server, timeout=60) as sock:
            sock.sendall(
                b"POST /runs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: -1\r\n\r\n"
            )
            reply = sock.makefile("rb").readline()
        assert reply.split()[1] == b"400"

    @pytest.mark.parametrize("sent", [
        pytest.param(b"GET /healthz HTTP/1.1\r\nHost: x\r\n", id="half-head"),
        pytest.param(b"POST /runs HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"s",
                     id="half-body"),
    ])
    def test_stalled_client_gets_408_and_is_disconnected(
        self, server, monkeypatch, sent
    ):
        from repro.service import app

        monkeypatch.setattr(app, "READ_TIMEOUT_S", 0.2)
        with socket.create_connection(server, timeout=60) as sock:
            sock.sendall(sent)  # ... and stall
            reply = sock.makefile("rb").read()  # returns once the server closes
        assert reply.split()[1] == b"408"
        assert b"request not received within 0.2 s" in reply

    def test_run_listing_and_status(self, server):
        specs = [make_spec(0.5)]
        status, body = request(server, "POST", "/runs", body=submission(specs))
        assert status == 201
        run_id = json.loads(body)["run_id"]

        status, doc = get_json(server, f"/runs/{run_id}/result?wait=1")
        assert status == 200

        status, doc = get_json(server, "/runs")
        assert status == 200
        assert [r["run_id"] for r in doc["runs"]] == [run_id]

        status, doc = get_json(server, f"/runs/{run_id}")
        assert status == 200
        assert doc["state"] == "completed"
        assert doc["n_done"] == 1

    def test_result_without_wait_is_409_while_running(self, server):
        specs = [make_spec(load) for load in (0.3, 0.5, 0.7, 0.9)]
        _, body = request(server, "POST", "/runs", body=submission(specs))
        run_id = json.loads(body)["run_id"]
        status, doc = get_json(server, f"/runs/{run_id}/result")
        # Either still executing (409 + hint) or already done (tiny sweep).
        assert status in (200, 409)
        if status == 409:
            assert "wait" in doc["error"]
            status, _ = get_json(server, f"/runs/{run_id}/result?wait=1")
            assert status == 200

    def test_event_stream_replay_after_completion(self, server):
        specs = [make_spec(0.5), make_spec(0.7)]
        _, body = request(server, "POST", "/runs", body=submission(specs))
        run_id = json.loads(body)["run_id"]
        request(server, "GET", f"/runs/{run_id}/result?wait=1")

        status, body = request(server, "GET", f"/runs/{run_id}/events")
        assert status == 200
        events = list(read_trace(body.decode().splitlines()))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_submitted"
        assert kinds[-1] == "run_completed"
        assert kinds.count("point_completed") == 2
        points = [e for e in events if e["event"] == "point_completed"]
        assert {p["index"] for p in points} == {0, 1}
        assert all(p["ok"] for p in points)

    def test_named_experiment_submission(self, server):
        _, body = request(
            server,
            "POST",
            "/runs",
            body={"experiment": "fig8", "config": {"n_jobs": N_JOBS, "mems": [24]}},
        )
        doc = json.loads(body)
        assert doc["experiment"] == "fig8"
        status, result = get_json(server, f"/runs/{doc['run_id']}/result?wait=1")
        assert status == 200
        assert result["result"]["n_runs"] == doc["n_specs"] == 2


class TestConcurrentClients:
    def test_eight_clients_overlapping_sweeps(self, server, tmp_path):
        """ISSUE acceptance: >= 8 concurrent clients, overlapping sweeps,
        bit-identical results, at-most-once execution, valid /metrics."""
        shared = make_spec(0.6, "successive")
        sweep_a = [make_spec(0.4), make_spec(0.8), shared]
        sweep_b = [make_spec(0.5, "successive"), shared, make_spec(0.9)]

        def client(i):
            sweep = sweep_a if i % 2 == 0 else sweep_b
            status, body = request(
                server, "POST", "/runs", body=submission(sweep)
            )
            assert status in (200, 201)
            run_id = json.loads(body)["run_id"]
            status, body = request(
                server, "GET", f"/runs/{run_id}/result?wait=1"
            )
            assert status == 200
            return run_id, json.loads(body)

        with ThreadPoolExecutor(max_workers=9) as pool:
            futures = [pool.submit(client, i) for i in range(8)]
            # While clients wait, /metrics must stay a valid scrape.
            scrapes = 0
            while not all(f.done() for f in futures):
                status, body = request(server, "GET", "/metrics")
                assert status == 200
                validate_metrics(body.decode())
                scrapes += 1
            results = [f.result() for f in futures]
        assert scrapes > 0

        # Two distinct sweeps; all clients of one sweep share one run.
        ids_a = {rid for i, (rid, _) in enumerate(results) if i % 2 == 0}
        ids_b = {rid for i, (rid, _) in enumerate(results) if i % 2 == 1}
        assert len(ids_a) == len(ids_b) == 1
        assert ids_a != ids_b

        for i, (rid, doc) in enumerate(results):
            assert doc["n_executions"] == 1, "duplicate submission re-executed"
            assert doc["result"]["n_errors"] == 0

        # Submission counts are checked after every client has joined: a
        # fast sweep can hand an early client its result before the last
        # duplicate client has even submitted.
        for rid in ids_a | ids_b:
            _, doc = get_json(server, f"/runs/{rid}/result")
            assert doc["n_submissions"] == 4

        # Bit-identical to a direct, service-free run_sweep of each grid.
        for sweep, (_, doc) in ((sweep_a, results[0]), (sweep_b, results[1])):
            direct = run_sweep(sweep, cache=SweepCache(tmp_path / "direct"))
            expected = [asdict(o.point) for o in direct.outcomes]
            served = [o["point"] for o in doc["result"]["outcomes"]]
            assert served == expected

    def test_resubmission_after_completion_hits_cache(self, server, tmp_path):
        """A second server over the same cache dir answers the identical
        sweep wholly from cache: n_cache_hits == n_specs."""
        specs = [make_spec(0.5), make_spec(0.7, "successive")]
        _, body = request(server, "POST", "/runs", body=submission(specs))
        first = json.loads(body)
        request(server, "GET", f"/runs/{first['run_id']}/result?wait=1")

        config = ServiceConfig(port=0, cache=SweepCache(tmp_path / "cache"))
        with ServiceThread(config) as second:
            status, body = request(
                second, "POST", "/runs", body=submission(specs)
            )
            assert status == 201  # new registry: a new record...
            doc = json.loads(body)
            assert doc["run_id"] == first["run_id"]  # ...same identity
            status, body = request(
                second, "GET", f"/runs/{doc['run_id']}/result?wait=1"
            )
            assert status == 200
            result = json.loads(body)["result"]
            assert result["n_cache_hits"] == len(specs)  # nothing re-simulated
            assert result["profile"]["n_executed"] == 0
