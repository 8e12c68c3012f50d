"""The request server: routing, HTTP loopback, concurrency, shutdown."""

import http.client
import json
import os
import socket
import threading
import time

import pytest

from repro.api import Scenario, SimConfig, list_policies, simulate
from repro.loadgen import default_simulate_spec
from repro.server import (
    HttpError,
    SchedulingService,
    SerialExecutor,
    WarmPoolExecutor,
    serve_background,
)

SCENARIO = {"shape": "independent", "n_jobs": 8, "n_machines": 3,
            "model": "uniform", "seed": 7}
CONFIG = {"n_trials": 8, "seed": 3}


def _simulate_body(**overrides) -> dict:
    body = {"scenario": dict(SCENARIO), "policy": "greedy",
            "config": dict(CONFIG)}
    body.update(overrides)
    return body


class TestSchedulingServiceRouting:
    """Transport-independent handlers, exercised without any sockets."""

    @pytest.fixture()
    def service(self):
        return SchedulingService(SerialExecutor())

    def test_healthz_counters_and_executor_stats(self, service):
        status, payload = service.handle("GET", "/healthz", None)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["served"] == 0
        assert payload["executor"]["kind"] == "serial"
        assert "solve_cache" in payload["executor"]

    def test_policies_lists_the_registry(self, service):
        status, payload = service.handle("GET", "/policies", None)
        assert status == 200
        assert payload["n"] == len(list_policies())
        names = {row["name"] for row in payload["policies"]}
        assert "greedy" in names

    def test_simulate_round_trip_matches_in_process(self, service):
        status, payload = service.handle(
            "POST", "/simulate", _simulate_body(include_samples=True)
        )
        assert status == 200
        direct = simulate(Scenario.from_dict(SCENARIO), "greedy",
                          SimConfig.from_dict(CONFIG))
        assert payload["policy"] == "greedy"
        assert payload["mean"] == direct.mean
        assert payload["samples"] == direct.stats.samples.tolist()
        assert payload["n_trials"] == 8
        assert payload["ratio"] >= 1.0 - 1e-12

    def test_simulate_response_is_summary_sized_by_default(self, service):
        _status, payload = service.handle("POST", "/simulate", _simulate_body())
        assert "samples" not in payload
        assert "per_job" not in payload
        # A null config, like an absent one, runs the defaults.
        _status, payload = service.handle(
            "POST", "/simulate", _simulate_body(config=None, include_samples=False)
        )
        assert payload["n_trials"] == SimConfig().n_trials
        assert "samples" not in payload

    def test_simulate_per_job_statistics(self, service):
        _status, payload = service.handle(
            "POST", "/simulate", _simulate_body(per_job=True)
        )
        assert payload["per_job"]["n_jobs"] == SCENARIO["n_jobs"]

    def test_simulate_shard_pool_capped_at_cpu_count(self, service,
                                                      monkeypatch):
        # A client picks kernel_threads; the shard pool must still not
        # exceed the CPU count.  The stand-in records the requested width
        # and maps serially, so no thread starts whatever is asked for.
        import repro.sim.batch as batch

        widths = []

        class RecordingPool:
            def __init__(self, max_workers=None):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(batch, "ThreadPoolExecutor", RecordingPool)
        cpus = os.cpu_count() or 1
        wide = 4 * cpus
        config = {"n_trials": wide, "seed": 3}
        _status, serial = service.handle("POST", "/simulate", _simulate_body(
            config={**config, "kernel_threads": 1}, include_samples=True,
        ))
        assert widths == []
        _status, sharded = service.handle("POST", "/simulate", _simulate_body(
            config={**config, "kernel_threads": wide}, include_samples=True,
        ))
        assert widths and max(widths) <= cpus
        assert sharded["samples"] == serial["samples"]

    def test_grid_with_scenario_list(self, service):
        body = {
            "scenarios": [SCENARIO, dict(SCENARIO, seed=8)],
            "policies": ["greedy", "random"],
            "config": CONFIG,
        }
        status, payload = service.handle("POST", "/grid", body)
        assert status == 200
        assert payload["n"] == 4  # scenario-major: 2 scenarios x 2 policies
        assert [r["policy"] for r in payload["reports"]] == [
            "greedy", "random", "greedy", "random"
        ]

    def test_grid_with_declarative_grid(self, service):
        body = {
            "grid": {
                "base": {"shape": "independent", "n_machines": 2,
                         "model": "uniform", "seed": 1},
                "axes": {"n_jobs": [5, 6]},
            },
            "policies": "greedy",
            "config": CONFIG,
        }
        status, payload = service.handle("POST", "/grid", body)
        assert status == 200
        assert payload["n"] == 2
        assert {r["scenario"]["n_jobs"] for r in payload["reports"]} == {5, 6}

    @pytest.mark.parametrize(
        "method, path, body, fragment",
        [
            ("GET", "/nope", None, "no such endpoint"),
            ("POST", "/healthz", None, "expects GET"),
            ("GET", "/simulate", None, "expects POST"),
            ("POST", "/simulate", {}, "missing required field 'scenario'"),
            ("POST", "/simulate", {"scenario": 3}, "must be a JSON object"),
            ("POST", "/simulate", {"scenario": {"shape": "klein-bottle"}},
             "invalid scenario"),
            ("POST", "/simulate", _simulate_body(policy=7),
             "policy must be a registry name"),
            ("POST", "/simulate", _simulate_body(policy="not-a-policy"),
             "not-a-policy"),
            ("POST", "/simulate", _simulate_body(config={"n_trials": -2}),
             "invalid config"),
            ("POST", "/grid", {}, "missing required field 'grid'"),
            ("POST", "/grid", {"scenarios": []}, "non-empty list"),
            ("POST", "/grid", {"scenarios": [SCENARIO], "policies": [1]},
             "policies must be a list"),
            ("POST", "/simulate",
             _simulate_body(config={**CONFIG, "kernel": "numpy"}),
             "invalid config: unknown SimConfig fields ['kernel']"),
            ("POST", "/simulate", _simulate_body(config={"n_trials": 2.5}),
             "invalid config: n_trials must be an integer"),
            ("POST", "/simulate", _simulate_body(config={"n_trials": True}),
             "invalid config: n_trials must be an integer"),
            ("POST", "/simulate", _simulate_body(config={"seed": -1}),
             "invalid config: seed must be >= 0"),
            ("POST", "/simulate", _simulate_body(config={"seed": 1.5}),
             "invalid config: seed must be an integer"),
            ("POST", "/simulate", _simulate_body(config={"max_steps": 10.5}),
             "invalid config: max_steps must be an integer"),
            ("POST", "/simulate",
             _simulate_body(config={"kernel_threads": True}),
             "invalid config: kernel_threads must be an integer"),
            ("POST", "/simulate",
             _simulate_body(scenario={**SCENARIO, "n_jobs": 2.5}),
             "invalid scenario: n_jobs must be an integer"),
            ("POST", "/simulate",
             _simulate_body(scenario={**SCENARIO, "n_jobs": True}),
             "invalid scenario: n_jobs must be an integer"),
            ("POST", "/simulate",
             _simulate_body(scenario={**SCENARIO, "n_machines": 1.5}),
             "invalid scenario: n_machines must be an integer"),
            ("POST", "/simulate",
             _simulate_body(scenario={**SCENARIO, "shape": "layered",
                                      "n_layers": 2.5}),
             "invalid scenario: n_layers must be an integer"),
            ("POST", "/simulate",
             _simulate_body(scenario={**SCENARIO, "seed": -1}),
             "invalid scenario: seed must be >= 0"),
            ("POST", "/simulate",
             _simulate_body(scenario={**SCENARIO, "seed": 1.5}),
             "invalid scenario: seed must be an integer"),
            ("POST", "/simulate",
             _simulate_body(scenario={**SCENARIO, "seed": True}),
             "invalid scenario: seed must be an integer"),
            ("POST", "/simulate",
             _simulate_body(config={**CONFIG, "lp_reuse": "subset"}),
             "invalid config: unknown SimConfig fields ['lp_reuse']"),
        ]
        # Falsy non-objects are not "no config", and string flags are not
        # booleans: both routes reject them instead of running defaults.
        + [
            ("POST", path, {**body, **extra}, fragment)
            for path, body in [
                ("/simulate", _simulate_body()),
                ("/grid", {"scenarios": [SCENARIO], "policies": "greedy",
                           "config": CONFIG}),
            ]
            for extra, fragment in [
                ({"config": []}, "config must be a JSON object"),
                ({"config": ""}, "config must be a JSON object"),
                ({"config": 0}, "config must be a JSON object"),
                ({"config": False}, "config must be a JSON object"),
                ({"include_samples": "false"},
                 "include_samples must be a JSON boolean"),
                ({"per_job": "no"}, "per_job must be a JSON boolean"),
            ]
        ],
    )
    def test_client_errors_are_400s(self, service, method, path, body,
                                    fragment):
        with pytest.raises(HttpError) as err:
            service.handle(method, path, body)
        assert err.value.status in (400, 404, 405)
        assert fragment in err.value.message


class _Client:
    """Minimal synchronous HTTP client against a ServerHandle."""

    def __init__(self, handle):
        self.handle = handle

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(
            self.handle.host, self.handle.port, timeout=30
        )
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        finally:
            conn.close()


class TestHttpLoopback:
    @pytest.fixture(scope="class")
    def handle(self):
        with SerialExecutor() as ex, serve_background(ex) as handle:
            yield handle

    @pytest.fixture()
    def client(self, handle):
        return _Client(handle)

    def test_healthz_over_http(self, client):
        status, payload = client.request("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_simulate_over_http_matches_in_process(self, client):
        status, payload = client.request(
            "POST", "/simulate", _simulate_body(include_samples=True)
        )
        assert status == 200
        direct = simulate(Scenario.from_dict(SCENARIO), "greedy",
                          SimConfig.from_dict(CONFIG))
        assert payload["samples"] == direct.stats.samples.tolist()

    def test_unknown_path_is_404(self, client):
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert "no such endpoint" in payload["error"]

    def test_bad_json_body_is_400(self, handle):
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        try:
            conn.request("POST", "/simulate", body="{not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
            assert "not JSON" in json.loads(resp.read())["error"]
        finally:
            conn.close()

    def test_malformed_request_line_is_400(self, handle):
        with socket.create_connection((handle.host, handle.port),
                                      timeout=10) as sock:
            sock.sendall(b"garbage\r\n\r\n")
            response = sock.recv(4096)
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_oversized_body_is_413(self, handle):
        with socket.create_connection((handle.host, handle.port),
                                      timeout=10) as sock:
            sock.sendall(
                b"POST /simulate HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 999999999\r\n\r\n"
            )
            response = sock.recv(4096)
        assert response.startswith(b"HTTP/1.1 413 ")

    def test_keep_alive_serves_multiple_requests(self, handle):
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
        finally:
            conn.close()

    def test_concurrent_requests_interleave(self, handle):
        spec = json.loads(default_simulate_spec(n_trials=8).body)
        results = []
        client = _Client(handle)

        def worker():
            results.append(client.request("POST", "/simulate", spec))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert all(status == 200 for status, _ in results)
        means = {payload["mean"] for _, payload in results}
        assert len(means) == 1  # identical requests, identical answers

    def test_healthz_reflects_traffic(self, client, handle):
        client.request("GET", "/healthz")
        _status, payload = client.request("GET", "/healthz")
        assert payload["served"] >= 2
        assert payload["errors"] >= 2  # the 4xx probes above were counted


class TestWarmPoolOverHttp:
    def test_warm_pool_reuse_is_visible_in_healthz(self, monkeypatch):
        # Pinned on before the worker spawns: the test asserts cache hits.
        monkeypatch.delenv("REPRO_SOLVE_CACHE", raising=False)
        with WarmPoolExecutor(n_workers=1, solve_cache_entries=64) as ex:
            ex.prewarm()
            with serve_background(ex) as handle:
                client = _Client(handle)
                # "sem" solves LP round schedules, so the repeat request
                # can hit the warm worker's solve cache.
                body = _simulate_body(policy="sem")
                first = client.request("POST", "/simulate", body)
                _status, health = client.request("GET", "/healthz")
                before = health["executor"]["worker_solve_cache"]
                second = client.request("POST", "/simulate", body)
                _status, health = client.request("GET", "/healthz")
                after = health["executor"]["worker_solve_cache"]
        assert first[0] == 200 and second[0] == 200
        assert first[1]["mean"] == second[1]["mean"]
        # The repeat request hit the warm worker's solve cache, and the
        # pool survived the whole conversation without a respawn.
        assert after["hits"] > before["hits"]
        assert health["executor"]["pools_built"] == 1
        assert health["executor"]["warm"] is True
        # Transport never changes samples: the pool-served answer is the
        # serial answer.
        direct = simulate(Scenario.from_dict(SCENARIO), "sem",
                          SimConfig.from_dict(CONFIG))
        assert first[1]["mean"] == direct.mean


class TestGracefulShutdown:
    def test_stop_drains_in_flight_requests(self):
        with SerialExecutor() as ex:
            handle = serve_background(ex, drain_timeout=30.0)
            slow_body = _simulate_body(config={"n_trials": 200, "seed": 3})
            outcome = {}

            def slow_request():
                client = _Client(handle)
                t0 = time.monotonic()
                outcome["response"] = client.request(
                    "POST", "/simulate", slow_body
                )
                outcome["elapsed"] = time.monotonic() - t0

            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.15)  # let the request reach the handler
            handle.stop()
            thread.join(timeout=30)
            assert not thread.is_alive()
        status, payload = outcome["response"]
        assert status == 200  # drained, not dropped
        assert payload["n_trials"] == 200

    def test_stopped_server_refuses_new_connections(self):
        with SerialExecutor() as ex:
            handle = serve_background(ex)
            host, port = handle.host, handle.port
            handle.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2).close()

    def test_stop_is_idempotent(self):
        with SerialExecutor() as ex:
            handle = serve_background(ex)
            handle.stop()
            handle.stop()  # second stop: clean no-op
