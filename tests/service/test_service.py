"""End-to-end service tests: a real server, real HTTP clients in threads.

The centerpiece is the concurrency contract: many clients submitting
overlapping sweeps at once get results bit-identical to a direct
:func:`run_sweep`, with each distinct sweep executing at most once and
``/metrics`` staying valid Prometheus text throughout.
"""

import gc
import http.client
import json
import socket
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import pytest

from repro.experiments.cache import SweepCache
from repro.experiments.parallel import run_sweep, simulate_spec
from repro.experiments.specs import ClusterSpec, EstimatorSpec, RunSpec, WorkloadSpec
from repro.obs import read_trace
from repro.service import ServiceConfig, ServiceThread, app, registry
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

    @pytest.mark.parametrize("part, fields", [
        ("workload", {"load": -1.0}),
        ("workload", {"load": float("nan")}),
        ("workload", {"n_jobs": 0}),
        ("workload", {"n_jobs": -5}),
        ("workload", {"source": "nope"}),
        ("cluster", {"second_tier_mem": -3.0}),
        ("cluster", {"strategy": "nope"}),
        (None, {"seed": -1}),
    ])
    def test_malformed_spec_is_400_with_nothing_queued(
        self, server, tmp_path, part, fields
    ):
        doc = spec_to_dict(make_spec(0.5))
        (doc[part] if part else doc).update(fields)
        status, body = request(server, "POST", "/runs", body={"specs": [doc]})
        assert status == 400
        assert next(iter(fields)) in json.loads(body)["error"]
        assert get_json(server, "/runs")[1]["runs"] == []
        assert len(SweepCache(tmp_path / "cache")) == 0

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

    @pytest.mark.parametrize(
        "experiment, config, n_specs",
        [
            ("fig5", {"loads": [0.6]}, 2),
            ("fig8", {"mems": [24]}, 2),
            ("faults", {"mtbfs": [0]}, 4),
        ],
        ids=["fig5", "fig8", "faults"],
    )
    def test_named_experiment_submission(self, server, experiment, config, n_specs):
        _, body = request(
            server,
            "POST",
            "/runs",
            body={"experiment": experiment, "config": {"n_jobs": N_JOBS, **config}},
        )
        doc = json.loads(body)
        assert doc["experiment"] == experiment
        status, result = get_json(server, f"/runs/{doc['run_id']}/result?wait=1")
        assert status == 200
        assert result["result"]["n_runs"] == doc["n_specs"] == n_specs
        assert result["result"]["n_errors"] == 0


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

    def test_side_by_side_sweeps_each_get_their_own_cluster(
        self, server, monkeypatch
    ):
        """Two sweeps run at once on the default shape (one in-process
        sweep worker each, two sweeps side by side) on worst-fit clusters,
        which only the scalar engine runs: every point matches its serial
        scalar run."""
        both_running = threading.Barrier(2, timeout=60)
        run_sweep = registry.run_sweep

        def side_by_side(*args, **kwargs):
            both_running.wait()
            return run_sweep(*args, **kwargs)

        monkeypatch.setattr(registry, "run_sweep", side_by_side)
        sweeps = [
            [
                RunSpec(
                    workload=WorkloadSpec(n_jobs=1500, seed=3, load=load),
                    cluster=ClusterSpec(strategy="worst_fit"),
                    estimator=EstimatorSpec(name=estimator),
                    label=f"{estimator}@{load:g}",
                )
                for load in (0.7, 0.9)
            ]
            for estimator in ("none", "successive")
        ]
        with ThreadPoolExecutor(max_workers=2) as clients:
            docs = list(clients.map(
                lambda sweep: run_to_completion(server, sweep)[1], sweeps
            ))
        for sweep, doc in zip(sweeps, docs):
            assert doc["result"]["n_errors"] == 0
            served = [o["point"] for o in doc["result"]["outcomes"]]
            assert served == [asdict(simulate_spec(s)) for s in sweep]

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


#: ``/metrics`` counters and the status-document field each one sums.
TOTALS = {
    "submissions": "n_submissions",
    "executions": "n_executions",
    "points_completed": "n_done",
    "cache_hits": "n_cache_hits",
    "point_errors": "n_point_errors",
}


def metric_totals(address):
    status, body = request(address, "GET", "/metrics")
    assert status == 200
    values = validate_metrics(body.decode())
    return {name: values[f"repro_service_{name}_total"] for name in TOTALS}


def run_to_completion(address, specs):
    status, body = request(address, "POST", "/runs", body=submission(specs))
    assert status in (200, 201)
    run_id = json.loads(body)["run_id"]
    status, body = request(address, "GET", f"/runs/{run_id}/result?wait=1")
    assert status == 200
    return run_id, json.loads(body)


@pytest.fixture
def gate(monkeypatch):
    """Hold every sweep execution while the gate is closed (it starts open)."""
    gate = threading.Event()
    gate.set()
    run_sweep = registry.run_sweep

    def gated(*args, **kwargs):
        gate.wait(60)
        return run_sweep(*args, **kwargs)

    monkeypatch.setattr(registry, "run_sweep", gated)
    yield gate
    gate.set()


def keep_finished(monkeypatch, n):
    monkeypatch.setattr(registry, "FINISHED_RUNS_KEPT", n)


class TestRetention:
    """The registry holds in-flight runs plus only the newest finished ones."""

    def test_dropped_run_is_404_with_a_replay_hint(self, server, monkeypatch):
        keep_finished(monkeypatch, 1)
        old, _ = run_to_completion(server, [make_spec(0.5)])
        new, _ = run_to_completion(server, [make_spec(0.7)])
        for path in ("", "/result", "/events"):
            status, body = request(server, "GET", f"/runs/{old}{path}")
            assert status == 404
            message = json.loads(body)["error"]
            assert "does not hold it" in message
            assert "resubmitting the same specs replays it" in message
            assert request(server, "GET", f"/runs/{new}{path}")[0] == 200
        _, doc = get_json(server, "/healthz")
        assert doc["n_runs"] == 1

    def test_resubmission_after_eviction_replays_from_cache(
        self, server, monkeypatch
    ):
        keep_finished(monkeypatch, 1)
        specs = [make_spec(0.5), make_spec(0.7, "successive")]
        first, doc = run_to_completion(server, specs)
        assert doc["result"]["profile"]["n_executed"] == len(specs)
        run_to_completion(server, [make_spec(0.9)])  # drops the first run

        status, body = request(server, "POST", "/runs", body=submission(specs))
        assert status == 201
        again = json.loads(body)
        assert again["created"] and again["run_id"] == first
        status, doc = get_json(server, f"/runs/{first}/result?wait=1")
        assert status == 200
        assert doc["n_executions"] == 1 and doc["n_submissions"] == 1
        assert doc["n_cache_hits"] == doc["n_specs"] == len(specs)
        assert doc["result"]["profile"]["n_executed"] == 0

    def test_waiters_on_a_run_dropped_while_they_wait_complete(
        self, server, monkeypatch, gate
    ):
        keep_finished(monkeypatch, 0)  # a run is dropped the moment it ends
        waiting = threading.Event()
        result = app.SweepService._result

        async def entered_result(self, record, query):
            waiting.set()  # no await before result() parks on record.done
            return await result(self, record, query)

        monkeypatch.setattr(app.SweepService, "_result", entered_result)
        gate.clear()
        status, body = request(
            server, "POST", "/runs", body=submission([make_spec(0.5)])
        )
        run_id = json.loads(body)["run_id"]

        stream = http.client.HTTPConnection(*server, timeout=60)
        try:
            stream.request("GET", f"/runs/{run_id}/events")
            events = stream.getresponse()
            assert events.status == 200
            first = events.readline()  # history replayed: subscribed
            with ThreadPoolExecutor(max_workers=1) as pool:
                waiter = pool.submit(
                    get_json, server, f"/runs/{run_id}/result?wait=1"
                )
                assert waiting.wait(60)
                gate.set()
                status, doc = waiter.result(timeout=60)
            lines = [first] + events.read().splitlines()
        finally:
            stream.close()
        assert status == 200
        assert doc["state"] == "completed" and doc["result"]["n_runs"] == 1
        kinds = [e["event"] for e in read_trace(
            line.decode() for line in lines if line.strip()
        )]
        assert kinds[0] == "run_submitted" and kinds[-1] == "run_completed"
        assert request(server, "GET", f"/runs/{run_id}")[0] == 404

    def test_listing_holds_the_bound_plus_in_flight_runs(
        self, server, monkeypatch, gate
    ):
        keep_finished(monkeypatch, 2)
        finished = [
            run_to_completion(server, [make_spec(load)])[0]
            for load in (0.3, 0.4, 0.5, 0.6)
        ]
        gate.clear()
        in_flight = [
            json.loads(request(
                server, "POST", "/runs", body=submission([make_spec(load)])
            )[1])["run_id"]
            for load in (0.7, 0.8)
        ]
        _, doc = get_json(server, "/runs")
        assert {r["run_id"] for r in doc["runs"]} == set(
            finished[-2:] + in_flight
        )
        gate.set()
        for run_id in in_flight:
            assert get_json(server, f"/runs/{run_id}/result?wait=1")[0] == 200
        _, doc = get_json(server, "/runs")
        assert [r["run_id"] for r in doc["runs"]] == in_flight[::-1]

    def test_totals_never_fall_when_runs_are_dropped(self, server, monkeypatch):
        keep_finished(monkeypatch, 2)
        shared = make_spec(0.5)
        sweeps = [
            [shared],
            [shared, make_spec(0.6)],  # one cache hit
            [shared],  # attaches while still held
            [make_spec(0.7)],
            [make_spec(0.8), shared],  # drops earlier runs from here on
            [shared, make_spec(0.6)],  # dropped: replayed from the cache
        ]
        previous = None
        for i, specs in enumerate(sweeps):
            run_to_completion(server, specs)
            totals = metric_totals(server)
            if previous is not None:
                assert all(totals[k] >= previous[k] for k in TOTALS), totals
            previous = totals
            if i < 3:  # nothing dropped yet: the totals are per-run sums
                _, doc = get_json(server, "/runs")
                assert totals == {
                    name: sum(r[field] for r in doc["runs"])
                    for name, field in TOTALS.items()
                }
        assert previous == {
            "submissions": 6,
            "executions": 5,
            "points_completed": 8,
            "cache_hits": 4,
            "point_errors": 0,
        }


def test_memory_stays_flat_once_finished_runs_are_dropped(tmp_path, monkeypatch):
    """A long-running server holds memory in proportion to its live work:
    with the bound at 8, the second half of 120 small submissions adds
    almost nothing (holding every finished run adds ~5 KB a submission
    here, ~300 KB over the half)."""
    keep_finished(monkeypatch, 8)
    config = ServiceConfig(port=0, cache=SweepCache(tmp_path / "cache"))

    def spec(i):
        return RunSpec(
            workload=WorkloadSpec(n_jobs=30, load=0.5),
            estimator=EstimatorSpec(name="successive"),
            seed=i,
        )

    with ServiceThread(config) as address:
        for i in range(8):  # warm up the memos, the cache dir, the pool
            run_to_completion(address, [spec(i)])
        tracemalloc.start()
        try:
            for i in range(8, 68):
                run_to_completion(address, [spec(i)])
            gc.collect()  # count what is held, not uncollected cycles
            half = tracemalloc.get_traced_memory()[0]
            for i in range(68, 128):
                run_to_completion(address, [spec(i)])
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - half
        finally:
            tracemalloc.stop()
    assert growth < 100_000, f"{growth} B over 60 submissions"
