"""The serving layer: protocol validation, HTTP endpoints, admission.

Two halves. The protocol tests are plain unit tests over
:mod:`repro.service.protocol` -- every budget and malformed-envelope
path is exercised without a socket. The server tests start real
``python -m repro serve`` subprocesses (ephemeral ``--port 0``) and
drive them with :class:`repro.service.client.ServiceClient`, pinning
the end-to-end identity contract (HTTP batch == HTTP stream == direct
in-process Session for a pinned seed) and the admission/fault behavior
the front end promises: 429 + Retry-After at ``max_inflight``,
validation rejections before any stream bytes, freed slots after client
disconnects, 504 past ``max_seconds``, and a SIGTERM drain that exits 0.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.api import EnsembleRequest, SampleRequest, Session
from repro.api.presets import preset_config
from repro.errors import ConfigError
from repro.service.client import (
    ServiceClient,
    ServiceRequestError,
    ServiceUnavailable,
    wait_until_ready,
)
from repro.service.protocol import (
    ServiceError,
    ServiceLimits,
    parse_service_envelope,
)

SRC = Path(__file__).resolve().parent.parent / "src"

LIMITS = ServiceLimits(
    max_draws=50, max_graph_n=64, max_jobs=2, max_body_bytes=4096
)


def envelope(graph=None, request=None, **extra):
    doc = {
        "graph": graph or {"family": "cycle", "n": 8},
        "request": request or {"request": "sample", "seed": 0},
    }
    doc.update(extra)
    return doc


class TestEnvelopeValidation:
    def test_family_spec_canonicalized(self):
        task = parse_service_envelope(envelope(), LIMITS)
        assert task.graph_spec == {"family": "cycle", "n": 8, "seed": 0}
        assert task.preset == "fast-bench"
        assert task.overrides == {}

    def test_session_key_tracks_graph_preset_config_not_request(self):
        base = parse_service_envelope(envelope(), LIMITS)
        same = parse_service_envelope(
            envelope(request={"request": "ensemble", "count": 3}), LIMITS
        )
        assert base.session_key == same.session_key
        for variation in (
            envelope(graph={"family": "cycle", "n": 10}),
            envelope(preset="paper-exact"),
            envelope(config={"ell": 2048}),
        ):
            other = parse_service_envelope(variation, LIMITS)
            assert other.session_key != base.session_key

    def test_unknown_envelope_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown envelope field"):
            parse_service_envelope(envelope(bogus=1), LIMITS)

    @pytest.mark.parametrize(
        "field", ["schur_method", "shortcut_method", "placement_mode"]
    )
    def test_retired_config_fields_rejected(self, field):
        # Both derived-graph method knobs were retired when ShortCut and
        # Schur moved onto one kernel, and placement_mode when every
        # phase came to run over a placement plan; old clients get the
        # usual 400.
        with pytest.raises(ServiceError, match="unknown config field"):
            parse_service_envelope(envelope(config={field: "x"}), LIMITS)

    @pytest.mark.parametrize("missing", ["graph", "request"])
    def test_missing_required_sections(self, missing):
        doc = envelope()
        del doc[missing]
        with pytest.raises(ServiceError, match=f"'{missing}'"):
            parse_service_envelope(doc, LIMITS)

    def test_non_dict_body_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            parse_service_envelope(["not", "an", "object"], LIMITS)

    def test_unknown_request_tag_rejected(self):
        with pytest.raises(ServiceError, match="unknown request tag"):
            parse_service_envelope(
                envelope(request={"request": "explode"}), LIMITS
            )

    def test_unknown_request_field_rejected(self):
        with pytest.raises(ServiceError):
            parse_service_envelope(
                envelope(request={"request": "sample", "frob": 1}), LIMITS
            )

    def test_unknown_preset_rejected(self):
        with pytest.raises(ServiceError, match="preset"):
            parse_service_envelope(envelope(preset="warp-speed"), LIMITS)


class TestGraphSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ServiceError, match="unknown family"):
            parse_service_envelope(
                envelope(graph={"family": "petersen++", "n": 10}), LIMITS
            )

    def test_family_min_n_enforced(self):
        with pytest.raises(ServiceError, match="needs n >="):
            parse_service_envelope(
                envelope(graph={"family": "cycle", "n": 2}), LIMITS
            )

    def test_graph_size_budget(self):
        with pytest.raises(ServiceError, match="max_graph_n"):
            parse_service_envelope(
                envelope(graph={"family": "cycle", "n": 65}), LIMITS
            )

    def test_unknown_graph_field(self):
        with pytest.raises(ServiceError, match="unknown graph field"):
            parse_service_envelope(
                envelope(graph={"family": "cycle", "n": 8, "w": 2}), LIMITS
            )

    def test_explicit_edges_build(self):
        spec = {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0], [0, 2, 3.0]]}
        task = parse_service_envelope(envelope(graph=spec), LIMITS)
        graph, meta = task.build_graph()
        assert meta["family"] == "explicit"
        assert graph.n == 3
        assert graph.weight(1, 2) == 2.0

    def test_disconnected_edges_rejected(self):
        spec = {"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]}
        with pytest.raises(ServiceError):
            parse_service_envelope(envelope(graph=spec), LIMITS)

    def test_malformed_edges_rejected(self):
        spec = {"n": 3, "edges": [[0, 0, 1.0]]}  # self-loop
        with pytest.raises(ServiceError, match="bad graph edges"):
            parse_service_envelope(envelope(graph=spec), LIMITS)

    def test_spec_needs_family_or_edges(self):
        with pytest.raises(ServiceError, match="graph spec needs"):
            parse_service_envelope(envelope(graph={"n": 8}), LIMITS)


class TestBudgets:
    def test_draw_count_budget(self):
        with pytest.raises(ServiceError, match="max_draws"):
            parse_service_envelope(
                envelope(request={"request": "ensemble", "count": 51}),
                LIMITS,
            )

    def test_audit_samples_budget(self):
        with pytest.raises(ServiceError, match="max_draws"):
            parse_service_envelope(
                envelope(request={"request": "audit", "samples": 51}),
                LIMITS,
            )

    def test_jobs_budget(self):
        with pytest.raises(ServiceError, match="max_jobs"):
            parse_service_envelope(
                envelope(
                    request={"request": "ensemble", "count": 4, "jobs": 3}
                ),
                LIMITS,
            )

    def test_jobs_none_clamped_to_budget(self):
        """'All CPUs' is not a thing a shared server hands out."""
        task = parse_service_envelope(
            envelope(request={"request": "ensemble", "count": 4}), LIMITS
        )
        assert task.request.jobs == LIMITS.max_jobs

    def test_server_owned_config_rejected(self):
        for fields in ({"cache_dir": "/tmp/x"}, {"derived_cache": False},
                       {"cache_disk_bytes": 1}):
            with pytest.raises(ServiceError, match="server-owned"):
                parse_service_envelope(envelope(config=fields), LIMITS)

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown config field"):
            parse_service_envelope(envelope(config={"elll": 1024}), LIMITS)

    def test_bad_config_value_rejected_with_config_error_text(self):
        with pytest.raises(ServiceError, match="bad config override"):
            parse_service_envelope(envelope(config={"ell": 3}), LIMITS)

    def test_limits_validate_themselves(self):
        with pytest.raises(ConfigError):
            ServiceLimits(max_draws=0)
        with pytest.raises(ConfigError):
            ServiceLimits(max_jobs=0)
        with pytest.raises(ConfigError):
            ServiceLimits(max_seconds=0.0)


# ---------------------------------------------------------------------------
# Live-server tests.
# ---------------------------------------------------------------------------


def start_server(*args: str, env_extra: dict | None = None):
    """Spawn ``python -m repro serve --port 0 ...``; returns (proc, port)."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **(env_extra or {})}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on http://[^:]+:(\d+)", line)
    if not match:  # startup failed; surface stderr
        proc.kill()
        raise AssertionError(
            f"server did not start: {line!r}\n{proc.stderr.read()[-2000:]}"
        )
    return proc, int(match.group(1))


def stop_server(proc, expect_code: int | None = 0) -> int:
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise AssertionError("server did not drain within 20s") from None
    if expect_code is not None:
        assert code == expect_code, proc.stderr.read()[-2000:]
    return code


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One shared server for the read-mostly endpoint tests."""
    cache = tmp_path_factory.mktemp("service-cache")
    proc, port = start_server(
        "--workers", "2", "--max-inflight", "4", "--max-draws", "64",
        "--max-graph-n", "64", "--max-body-bytes", "8K",
        "--cache-dir", str(cache),
    )
    client = ServiceClient(port=port)
    wait_until_ready(client)
    yield client
    stop_server(proc)


GRAPH = {"family": "cycle", "n": 8, "seed": 0}


def local_session(seed: int = 0) -> Session:
    task = parse_service_envelope(
        {"graph": GRAPH, "request": {"request": "sample"}}, ServiceLimits()
    )
    graph, meta = task.build_graph()
    return Session(graph, preset_config("fast-bench"), seed=seed, meta=meta)


class TestEndpoints:
    def test_healthz_and_stats(self, server):
        health = server.healthz()
        assert health["status"] == "ok"
        stats = server.stats()
        assert stats["limits"]["max_inflight"] == 4
        assert "counters" in stats and "sessions" in stats

    def test_metrics_prometheus_text_format(self, server):
        """Golden format: HELP/TYPE/sample triples, counters == /stats."""
        text = server.metrics()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines and len(lines) % 3 == 0
        names = []
        for i in range(0, len(lines), 3):
            help_line, type_line, sample = lines[i:i + 3]
            match = re.match(r"# HELP (repro_service_\w+) \S", help_line)
            assert match, help_line
            name = match.group(1)
            assert type_line.startswith(f"# TYPE {name} ")
            assert type_line.rsplit(" ", 1)[1] in ("counter", "gauge")
            assert re.fullmatch(rf"{re.escape(name)} \d+", sample), sample
            names.append(name)
        # Exposition covers every /stats counter (same order) plus the
        # live gauges, and the values agree with the JSON view.
        stats = server.stats()
        expected = [f"repro_service_{key}" for key in stats["counters"]]
        expected += [
            "repro_service_inflight",
            "repro_service_draining",
            "repro_service_queue_depth",
            "repro_service_breaker_open",
        ]
        assert names == expected
        for key, value in stats["counters"].items():
            assert f"repro_service_{key} {int(value)}" in lines
        assert f"repro_service_inflight {stats['inflight']}" in lines
        assert "repro_service_draining 0" in lines

    def test_unknown_path_404(self, server):
        with pytest.raises(ServiceRequestError) as info:
            server._get_json("/v2/nothing")
        assert info.value.status == 404

    def test_get_on_run_405(self, server):
        with pytest.raises(ServiceRequestError) as info:
            server._get_json("/v1/run")
        assert info.value.status == 405

    def test_bad_json_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            conn.request("POST", "/v1/run", body=b"{nope",
                         headers={"Content-Length": "5"})
            response = conn.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_missing_content_length_411(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/run HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            head = sock.recv(4096)
        assert b"411" in head.split(b"\r\n", 1)[0]

    def test_oversized_body_413(self, server):
        doc = envelope()
        doc["graph"] = {"family": "cycle", "n": 8,
                       "seed": 0}
        body = json.dumps(doc).encode() + b" " * (9 << 10)
        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            conn.request("POST", "/v1/run", body=body)
            response = conn.getresponse()
            assert response.status == 413
            assert "max_body_bytes" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_validation_error_400_with_message(self, server):
        with pytest.raises(ServiceRequestError) as info:
            server.run(GRAPH, {"request": "ensemble", "count": 10_000})
        assert info.value.status == 400
        assert "max_draws" in str(info.value)

    def test_batch_sample_matches_local_session(self, server):
        response = server.run(GRAPH, {"request": "sample", "seed": 5})
        local = local_session().run(SampleRequest(seed=5))
        assert response.result.tree == local.result.tree
        assert response.result.rounds == local.result.rounds
        assert response.meta["family"] == "cycle"
        assert "service_seconds" in response.meta

    def test_roundbill_served(self, server):
        response = server.run(GRAPH, {"request": "roundbill", "seed": 1})
        assert response.kind == "roundbill"
        local = local_session().run(
            __import__("repro.api", fromlist=["RoundBillRequest"])
            .RoundBillRequest(seed=1)
        )
        assert response.result.to_dict() == local.result.to_dict()

    def test_stream_equals_batch_equals_local(self, server):
        request = {"request": "ensemble", "count": 5, "seed": 17}
        batch = server.run(GRAPH, request)
        streamed, summary = server.stream_collect(GRAPH, request)
        local = local_session().run(
            EnsembleRequest(count=5, seed=17, jobs=1)
        )
        local_trees = [r.tree for r in local.result.results]
        assert [r.tree for r in batch.result.results] == local_trees
        assert [r.tree for r in streamed] == local_trees
        assert [r.rounds for r in streamed] == [
            r.rounds for r in local.result.results
        ]
        assert summary is not None and summary.count == 5
        assert summary.degraded is False

    def test_stream_rejects_non_ensemble(self, server):
        with pytest.raises(ServiceRequestError, match="ensemble"):
            list(server.stream(GRAPH, {"request": "sample", "seed": 0}))

    def test_stream_rejects_leverage_audit(self, server):
        with pytest.raises(ServiceRequestError, match="batch aggregate"):
            list(server.stream(GRAPH, {
                "request": "ensemble", "count": 2, "leverage_audit": True,
            }))

    def test_stream_validation_rejected_before_any_bytes(self, server):
        """Budget violations are a 400 status, never a mid-stream error."""
        with pytest.raises(ServiceRequestError) as info:
            list(server.stream(
                GRAPH, {"request": "ensemble", "count": 10_000}
            ))
        assert info.value.status == 400

    def test_config_overrides_flow_through(self, server):
        response = server.run(
            GRAPH, {"request": "sample", "seed": 2},
            config={"rng_contract": "v1", "ell": 1024},
        )
        assert response.meta["rng_contract"] == "v1"


class TestAdmissionAndFaults:
    def test_overload_429_with_retry_after(self, tmp_path):
        # --queue-depth 0 restores the pure-reject admission policy this
        # test pins; retries=0 keeps the client from absorbing the 429.
        proc, port = start_server(
            "--workers", "1", "--max-inflight", "1", "--queue-depth", "0",
            "--cache-dir", str(tmp_path / "cache"),
        )
        client = ServiceClient(port=port, retries=0)
        try:
            wait_until_ready(client)
            # Occupy the only slot with a stream held open mid-flight:
            # read exactly one record, then probe with a second request.
            stream = client.stream(
                {"family": "cycle", "n": 16},
                {"request": "ensemble", "count": 40, "seed": 0},
            )
            next(stream)
            with pytest.raises(ServiceUnavailable) as info:
                client.run(GRAPH, {"request": "sample", "seed": 0})
            assert info.value.status == 429
            assert info.value.retry_after is not None
            assert info.value.retry_after >= 1
            stream.close()
        finally:
            stop_server(proc)

    def test_disconnect_frees_slot(self, tmp_path):
        proc, port = start_server(
            "--workers", "1", "--max-inflight", "1",
            "--cache-dir", str(tmp_path / "cache"),
        )
        client = ServiceClient(port=port)
        try:
            wait_until_ready(client)
            stream = client.stream(
                {"family": "cycle", "n": 16},
                {"request": "ensemble", "count": 40, "seed": 1},
            )
            next(stream)
            stream.close()  # drop the socket mid-stream
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                stats = client.stats()
                if stats["inflight"] == 0:
                    break
                time.sleep(0.1)
            assert stats["inflight"] == 0, stats
            # The slot is usable again.
            response = client.run(GRAPH, {"request": "sample", "seed": 0})
            assert response.kind == "sample"
            assert client.stats()["counters"]["client_disconnects"] >= 1
        finally:
            stop_server(proc)

    def test_wall_clock_budget_504(self, tmp_path):
        proc, port = start_server(
            "--workers", "1", "--max-seconds", "0.02",
            "--cache-dir", str(tmp_path / "cache"),
        )
        client = ServiceClient(port=port)
        try:
            wait_until_ready(client)
            with pytest.raises(ServiceRequestError) as info:
                client.run(
                    {"family": "cycle", "n": 32},
                    {"request": "ensemble", "count": 8, "seed": 0},
                )
            assert info.value.status == 504
            assert "max_seconds" in str(info.value)
        finally:
            stop_server(proc)

    def test_timeout_recycles_worker_pool(self, tmp_path):
        """A worker past max_seconds is killed and respawned, not pinned.

        With one worker and a budget nothing can meet, every batch 504s;
        pre-recycle each timeout left the lone worker abandoned-but-busy
        (the second request would have queued behind dead work). The
        recycle policy kills + respawns the pool per timeout: the
        counter tracks it, the degraded path never triggers, and the
        server stays healthy through repeated blows and a clean drain.
        """
        proc, port = start_server(
            "--workers", "1", "--max-seconds", "0.02",
            "--cache-dir", str(tmp_path / "cache"),
        )
        client = ServiceClient(port=port)
        try:
            wait_until_ready(client)
            for expected_recycles in (1, 2):
                with pytest.raises(ServiceRequestError) as info:
                    client.run(
                        {"family": "cycle", "n": 32},
                        {"request": "ensemble", "count": 8, "seed": 0},
                    )
                assert info.value.status == 504
                stats = client.stats()
                assert (
                    stats["counters"]["worker_recycles"] == expected_recycles
                ), stats["counters"]
                # Respawn, not degradation: the inline fallback that a
                # broken pool forces was never needed.
                assert stats["counters"]["degraded_batches"] == 0
            assert client.healthz()["status"] == "ok"
        finally:
            assert stop_server(proc) == 0

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc, port = start_server(
            "--cache-dir", str(tmp_path / "cache"), "--drain-seconds", "10",
        )
        client = ServiceClient(port=port)
        wait_until_ready(client)
        client.run(GRAPH, {"request": "sample", "seed": 0})
        assert stop_server(proc) == 0
        # The listener is gone after the drain.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=2).close()


class TestAdmissionQueue:
    def test_burst_queues_and_completes(self, tmp_path):
        """Past max_inflight a burst waits in the queue, not a 429.

        Four concurrent batch requests against one slot: with the queue
        enabled every one of them completes, the overflow shows up in
        the ``queued`` counter, and nothing was hard-rejected.
        """
        proc, port = start_server(
            "--workers", "1", "--max-inflight", "1", "--queue-depth", "8",
            "--cache-dir", str(tmp_path / "cache"),
        )
        client = ServiceClient(port=port, retries=0)
        try:
            wait_until_ready(client)
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(
                        client.run, GRAPH, {"request": "sample", "seed": s}
                    )
                    for s in range(4)
                ]
                responses = [f.result(timeout=60) for f in futures]
            assert all(r.kind == "sample" for r in responses)
            counters = client.stats()["counters"]
            assert counters["completed"] == 4
            assert counters["queued"] >= 1
            assert counters["rejected_overload"] == 0
            assert counters["shed_deadline"] == 0
        finally:
            stop_server(proc)

    def test_deadline_shed_with_429_while_queued(self, tmp_path):
        """A queued request sheds with 429 when its deadline_ms expires."""
        proc, port = start_server(
            "--workers", "1", "--max-inflight", "1", "--queue-depth", "8",
            "--cache-dir", str(tmp_path / "cache"),
        )
        client = ServiceClient(port=port, retries=0)
        try:
            wait_until_ready(client)
            # Hold the only slot open mid-stream, then race a deadline
            # request into the queue: it must come back 429, promptly.
            stream = client.stream(
                {"family": "cycle", "n": 16},
                {"request": "ensemble", "count": 40, "seed": 0},
            )
            next(stream)
            started = time.monotonic()
            with pytest.raises(ServiceUnavailable) as info:
                client.run(
                    GRAPH, {"request": "sample", "seed": 1},
                    deadline_ms=300,
                )
            waited = time.monotonic() - started
            assert info.value.status == 429
            assert info.value.retry_after is not None
            assert "deadline" in str(info.value)
            assert waited < 5.0  # shed at the deadline, not a long timeout
            stream.close()
            counters = client.stats()["counters"]
            assert counters["shed_deadline"] >= 1
            assert client.stats()["inflight"] <= 1  # no wedged slot
        finally:
            stop_server(proc)

    def test_deadline_ms_validation(self):
        with pytest.raises(ServiceError):
            parse_service_envelope(envelope(deadline_ms=0), LIMITS)
        with pytest.raises(ServiceError):
            parse_service_envelope(envelope(deadline_ms="soon"), LIMITS)
        task = parse_service_envelope(envelope(deadline_ms=1500), LIMITS)
        assert task.deadline_ms == 1500
        # deadline_ms is an admission hint: same session either way.
        bare = parse_service_envelope(envelope(), LIMITS)
        assert task.session_key == bare.session_key


class TestServeCLI:
    def test_bad_flags_rejected(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--workers", "0"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 2
        assert "workers" in result.stderr

    def test_eaddrinuse_one_line_error(self):
        """A taken port exits 2 with one clean line, not a traceback."""
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            env = {**os.environ, "PYTHONPATH": str(SRC)}
            result = subprocess.run(
                [sys.executable, "-m", "repro", "serve",
                 "--port", str(port)],
                capture_output=True, text=True, env=env, timeout=60,
            )
        finally:
            blocker.close()
        assert result.returncode == 2
        assert "cannot serve on" in result.stderr
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_bad_host_one_line_error(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--host", "no-such-host.invalid", "--port", "0"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 2
        assert "cannot serve on" in result.stderr
        assert "Traceback" not in result.stderr
