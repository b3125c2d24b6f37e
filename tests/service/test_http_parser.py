"""The service's request parser under malformed input.

Raw bytes over a socket, never through an HTTP client library, so request
lines, headers and bodies can be as broken as a real peer can make them.
The contract: every malformed request gets a 4xx answer or a clean close,
never a 500 and never a hang.  ``Content-Length`` must be ASCII digits
only, and repeated headers must agree.
"""

import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cache import SweepCache
from repro.service import ServiceConfig, ServiceThread

#: Seconds a reply may take before the server counts as hung.
_REPLY_TIMEOUT_S = 20.0


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache = SweepCache(tmp_path_factory.mktemp("http-parser") / "cache")
    with ServiceThread(ServiceConfig(port=0, cache=cache)) as address:
        yield address


def exchange(address, raw):
    """Send ``raw``, half-close, and read the reply until the server
    closes.  A reset counts as a close; a reply that never ends fails."""
    chunks = []
    with socket.create_connection(address, timeout=_REPLY_TIMEOUT_S) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and closed before reading it all
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionResetError:
            pass
        except socket.timeout:
            pytest.fail(f"server hung on {raw[:200]!r}")
    return b"".join(chunks)


def status_of(reply):
    """The reply's status code, or None for a close without a reply."""
    if not reply:
        return None
    status_line = reply.split(b"\r\n", 1)[0]
    assert status_line.startswith(b"HTTP/1.1 "), reply[:200]
    return int(status_line.split()[1])


def post_runs(*headers, body=b""):
    head = b"POST /runs HTTP/1.1\r\nHost: x\r\n"
    head += b"".join(b"Content-Length: " + h + b"\r\n" for h in headers)
    return head + b"\r\n" + body


@pytest.mark.parametrize("value", [
    b"+5", b"1_0", b"-1", b"0x5", b"5.0", b"5 5", b"", b"1e3",
    "٥".encode("utf-8"),  # ARABIC-INDIC DIGIT FIVE
    b"\xb2",  # SUPERSCRIPT TWO in latin-1
])
def test_content_length_must_be_ascii_digits(server, value):
    reply = exchange(server, post_runs(value, body=b"{}{}{}"))
    assert status_of(reply) == 400
    assert b"bad Content-Length" in reply


def test_conflicting_content_lengths_are_400(server):
    reply = exchange(server, post_runs(b"2", b"6", body=b"{}{}{}"))
    assert status_of(reply) == 400
    assert b"conflicting Content-Length" in reply


def test_agreeing_duplicate_content_lengths_are_read(server):
    # The body is read (two bytes): the 400 is the schema's, not the
    # parser's.
    reply = exchange(server, post_runs(b"2", b"002", body=b"{}"))
    assert status_of(reply) == 400
    assert b"Content-Length" not in reply.split(b"\r\n\r\n", 1)[1]


def test_absurd_content_length_is_413(server):
    reply = exchange(server, post_runs(b"9" * 5000))
    assert status_of(reply) == 413


@pytest.mark.parametrize("raw", [
    pytest.param(b"GET http://[::1 HTTP/1.1\r\n\r\n", id="bad-ipv6-target"),
    pytest.param(b"GET / HTTP/1.1 extra\r\n\r\n", id="four-part-line"),
    pytest.param(b"\r\n\r\n", id="empty-line"),
    pytest.param(b"GET /x HTTP/1.1\r\n" + b"X: " + b"a" * 70000 + b"\r\n\r\n",
                 id="head-too-large"),
])
def test_malformed_heads_are_400(server, raw):
    assert status_of(exchange(server, raw)) == 400


def test_truncated_body_is_a_clean_close(server):
    assert exchange(server, post_runs(b"100", body=b'{"specs":')) == b""


_REQUEST_LINES = st.one_of(
    st.sampled_from([
        b"", b"GET", b"GET /", b"POST /runs HTTP/1.1 extra",
        b"POST /runs HTTP/1.1", b"POST  /runs HTTP/1.1",
        b"GET http://[ HTTP/1.1", b"GET http://[::1 HTTP/1.1",
        b"POST /runs?%zz=&&=;x HTTP/1.1", b"BREW /runs HTTP/1.1",
        b"GET /runs/\xff\xfe/result HTTP/1.1", b"\x00\xff\xfe",
    ]),
    st.binary(max_size=40),
)
_HEADER_NAMES = st.sampled_from([
    b"Content-Length", b"content-length", b" Content-Length ", b"Host",
    b"Transfer-Encoding", b"X-\xff",
])
_HEADER_VALUES = st.one_of(
    st.sampled_from([
        b"0", b"2", b"5", b"12", b"+5", b"1_0", b"-1", b" 7 ", b"0x10",
        b"", b"99999999999999999999", b"5, 5", b"chunked", b"\xb2",
    ]),
    st.binary(max_size=12),
)
_HEADERS = st.lists(
    st.one_of(
        st.tuples(_HEADER_NAMES, _HEADER_VALUES).map(
            lambda h: h[0] + b": " + h[1]
        ),
        st.binary(max_size=20),  # junk lines, colons optional
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(
    line=_REQUEST_LINES,
    headers=_HEADERS,
    # Bodies stay shorter than the smallest valid submission
    # ({"specs":[{}]}, 14 bytes): no case may start a real sweep.
    body=st.binary(max_size=12),
)
def test_fuzzed_requests_get_4xx_or_a_clean_close(server, line, headers, body):
    raw = line + b"\r\n" + b"".join(h + b"\r\n" for h in headers)
    raw += b"\r\n" + body
    status = status_of(exchange(server, raw))
    assert status is None or 400 <= status < 500, (status, raw)
