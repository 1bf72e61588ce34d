import http.server
import json
import threading

import pytest

from valnov.corpus import ArgumentInstance, Confidence, Split


def make_instance(
    id="i0",
    topic="topic",
    premise="a premise",
    conclusion="a conclusion",
    validity=1,
    novelty=1,
    vconf=Confidence.UNKNOWN,
    nconf=Confidence.UNKNOWN,
    split=Split.TRAIN,
):
    return ArgumentInstance(
        id=id,
        topic=topic,
        premise=premise,
        conclusion=conclusion,
        validity_raw=validity,
        novelty_raw=novelty,
        validity_confidence=vconf,
        novelty_confidence=nconf,
        split=split,
    )


@pytest.fixture
def tiny_corpus():
    """Six instances, two topics, both labels present for both tasks."""
    rows = [
        ("a0", "guns", "p one", "c one", 1, 1),
        ("a1", "guns", "p one", "c two", 1, -1),
        ("a2", "guns", "p two", "c three", -1, 0),
        ("a3", "taxes", "p three", "c four", 0, 1),
        ("a4", "taxes", "p three", "c five", 1, -1),
        ("a5", "taxes", "p four", "c six", -1, 1),
    ]
    return [
        make_instance(id=i, topic=t, premise=p, conclusion=c, validity=v, novelty=n)
        for i, t, p, c, v, n in rows
    ]


@pytest.fixture
def completion_server():
    """A completions endpoint on 127.0.0.1 that answers every POST with
    ``server.reply`` (status, body bytes) after ``server.release`` is set,
    and keeps each request's headers and JSON body in ``server.seen``."""

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            server.seen.append((dict(self.headers), json.loads(body)))
            server.release.wait(5)
            status, payload = server.reply
            try:
                self.send_response(status)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
            except ConnectionError:  # the client has already given up
                pass

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.seen, server.release = [], threading.Event()
    server.release.set()
    server.reply = (200, b"{}")
    server.endpoint = f"http://127.0.0.1:{server.server_port}/v1/completions"
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(5)
        assert not thread.is_alive()
