"""Transport tests: socket options, one write per response, keep-alive reuse.

Deterministic, not timing-based: a recording subclass of the daemon's
request handler notes each accepted socket's ``TCP_NODELAY`` option and
every ``wfile.write`` the handler makes.
"""

import http.client
import json
import socket
import threading

import numpy as np
import pytest

from repro.core.persistence import load_lite
from repro.obs.context import TRACE_HEADER
from repro.serve import LiteService, ModelRegistry, ServiceConfig, make_server
from repro.sparksim import CLUSTER_C
from repro.utils.rng import get_rng
from repro.workloads import get_workload

APP = "PageRank"


class _CountingWriter:
    """Wraps the handler's ``wfile``; records each write before sending it."""

    def __init__(self, raw, writes):
        self._raw = raw
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


@pytest.fixture()
def recorded(tenant_checkpoints):
    """(server, service, log): log["nodelay"] per connection, log["writes"]."""
    service = LiteService(ModelRegistry(tenant_checkpoints),
                          ServiceConfig(batch_window_s=0.0, retry_after_s=7))
    srv = make_server(service)
    log = {"nodelay": [], "writes": []}

    class Recording(srv.RequestHandlerClass):
        def setup(self):
            super().setup()
            log["nodelay"].append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            self.wfile = _CountingWriter(self.wfile, log["writes"])

    srv.RequestHandlerClass = Recording
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv, service, log
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _connect(srv):
    return http.client.HTTPConnection("127.0.0.1", srv.server_address[1], timeout=30)


def _payload(seed, **over):
    base = {
        "tenant": "acme",
        "app": APP,
        "data_features": get_workload(APP).data_spec("valid").features().tolist(),
        "n_candidates": 5,
        "seed": seed,
    }
    base.update(over)
    return base


def _direct_ranking(checkpoint, seed):
    rec = load_lite(checkpoint).recommend(
        APP, np.asarray(_payload(seed)["data_features"]), CLUSTER_C,
        n_candidates=5, rng=get_rng(seed),
    )
    return json.loads(json.dumps([[c.as_dict(), t] for c, t in rec.ranking]))


def _split(write):
    """One recorded write -> (status, headers dict, body bytes)."""
    head, _, body = write.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, body


def test_accepted_socket_has_tcp_nodelay(recorded):
    srv, _, log = recorded
    conn = _connect(srv)
    conn.request("GET", "/v1/health")
    assert conn.getresponse().read()
    conn.close()
    assert len(log["nodelay"]) == 1 and log["nodelay"][0] != 0


@pytest.mark.parametrize("path", ["/v1/health", "/v1/stats", "/v1/metrics", "/v1/nope"])
def test_each_response_is_one_complete_write(recorded, path):
    srv, _, log = recorded
    conn = _connect(srv)
    conn.request("GET", path)
    resp = conn.getresponse()
    body = resp.read()
    conn.close()
    assert len(log["writes"]) == 1
    status, headers, written = _split(log["writes"][0])
    assert status == resp.status
    assert written == body and int(headers["Content-Length"]) == len(body)
    assert headers["Content-Type"] == resp.getheader("Content-Type")
    if path == "/v1/metrics":
        assert headers["Content-Type"].startswith("text/plain")
        assert b"# TYPE" in body


def test_mixed_requests_share_one_keepalive_connection(recorded, tenant_checkpoints):
    srv, service, log = recorded
    conn = _connect(srv)
    steps = []   # (method, path, body, extra headers, check, shed by admission?)

    def add(method, path, check, payload=None, raw=None, headers=None, shed=False):
        body = raw if raw is not None else (
            json.dumps(payload).encode() if payload is not None else None)
        steps.append((method, path, body, headers or {}, check, shed))

    def ok_recommend(seed):
        def check(status, headers, body):
            assert status == 200
            assert body["ranking"] == _direct_ranking(tenant_checkpoints["acme"], seed)
        return check

    def status_is(expected, text=None):
        def check(status, headers, body):
            assert status == expected, body
            if text is not None:
                assert text in body["error"]
        return check

    def shed(status, headers, body):
        assert status == 503 and "capacity" in body["error"]
        assert headers["Retry-After"] == "7"

    def metrics(status, headers, body):
        assert status == 200 and "# TYPE" in body

    for i in range(3):
        add("POST", "/v1/recommend", ok_recommend(40 + i), _payload(40 + i))
        add("GET", "/v1/health", status_is(200))
        add("POST", "/v1/recommend", status_is(400, "malformed JSON"), raw=b"{nope")
        add("POST", "/v1/recommend", status_is(404, "unknown tenant"),
            _payload(1, tenant="nobody"))
        add("GET", "/v1/nope", status_is(404, "no such endpoint"))
        add("POST", "/v1/nope", status_is(404, "no such endpoint"), {"x": 1})
        add("POST", "/v1/recommend", shed, _payload(2), shed=True)
        add("GET", "/v1/metrics", metrics,
            headers={TRACE_HEADER: f"client-trace-{i}"})
        add("POST", "/v1/recommend", status_is(400, "data_features"),
            _payload(3, data_features=[]))
    add("GET", "/v1/stats", status_is(200))
    assert len(steps) >= 20

    for k, (method, path, body, headers, check, shed_it) in enumerate(steps):
        service.config.max_inflight = 0 if shed_it else 16
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()
        assert len(log["writes"]) == k + 1   # exactly one write per response
        status, written_headers, written = _split(log["writes"][k])
        assert (status, written) == (resp.status, raw)
        trace_id = resp.getheader(TRACE_HEADER)
        assert trace_id
        if TRACE_HEADER in headers:
            assert trace_id == headers[TRACE_HEADER]
        if resp.getheader("Content-Type") == "application/json":
            parsed = json.loads(raw)
            assert parsed["trace_id"] == trace_id
        else:
            parsed = raw.decode("utf-8")
        check(resp.status, written_headers, parsed)
    conn.close()
    assert len(log["nodelay"]) == 1   # every request rode the same connection


def test_invalid_content_length_is_400_and_closes(recorded):
    srv, _, log = recorded
    with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=30) as sock:
        sock.sendall(b"POST /v1/recommend HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: abc\r\n\r\n{}")
        received = b""
        while chunk := sock.recv(65536):   # the server closes after answering
            received += chunk
    status, headers, body = _split(received)
    assert status == 400 and "Content-Length" in json.loads(body)["error"]
    assert [received] == log["writes"]
