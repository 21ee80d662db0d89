"""Bounded push-ingest seam: TCP log replay (stanza tcp input analog).

Reference: pkg/stanza/operator/input/tcp/input.go:130-196 — one
scanner per connection, newline splitFunc, handleMessage building one
entry per token, optional ``add_attributes`` stamping net.transport /
net.peer.* / net.host.* — and the testbed ``tcp-batch-100`` scenario
(testbed/tests/log_test.go:152-158, datasenders.NewTCPUDPWriter with
100 lines per send).

A collector's TCP input is a LIVE unbounded push source; a batch
engine exposes the same seam as a BOUNDED replay: drain one socket
stream to EOF (or ``max_records``), split exactly like the stanza
newline splitFunc (strip one trailing ``\\r``; the trailing
unterminated partial IS emitted at EOF, matching bufio.Scanner), stamp
the net.* attributes, and hand the rows to the same downstream stanza
step DAG the file sources feed.  The socket drain is inherently one
sequential stream — exactly the reference's model (one goroutine per
connection) — so the driver accepts the bytes and emits block-sized
Arrow tables; parallelism starts at the first map_batches after
ingest.  At scale the fan-in is many sockets -> many bounded replay
datasets unioned, one per listener, each a few MB of Arrow before the
first stage.

``serve_lines_tcp`` is the in-sandbox stand-in for the remote sender
(the TCPUDPWriter side of the testbed scenario): a localhost replay
server that writes the fixture lines in ``batch``-line sends.
"""

from __future__ import annotations

import codecs
import socket
import threading
from collections.abc import Sequence

import pyarrow as pa

_DEFAULT_BLOCK_LINES = 65_536


def serve_lines_tcp(lines: Sequence[str], batch: int = 100,
                    host: str = "127.0.0.1") -> tuple[int, threading.Event]:
    """Start a localhost replay server on an ephemeral port: every
    connection receives ``lines`` newline-terminated in ``batch``-line
    sends (the testbed TCPUDPWriter shape), then the connection closes.
    A client that disconnects early only ends its own replay; later
    connections are still served.  Returns ``(port, stop_event)``; set
    the event to stop serving."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, 0))
    srv.listen(4)
    srv.settimeout(0.2)
    port = srv.getsockname()[1]
    stop = threading.Event()
    payloads = [("\n".join(lines[i:i + batch]) + "\n").encode("utf-8")
                for i in range(0, len(lines), batch)]

    def run():
        try:
            while not stop.is_set():
                try:
                    conn, _ = srv.accept()
                except socket.timeout:
                    continue
                with conn:
                    try:
                        for p in payloads:
                            conn.sendall(p)
                    except (BrokenPipeError, ConnectionResetError):
                        pass  # this client left early; serve the next
        finally:
            srv.close()

    threading.Thread(target=run, daemon=True).start()
    return port, stop


def _split_stream(buf: str) -> tuple[list[str], str]:
    """Split completed newline tokens off ``buf`` (one trailing \\r
    stripped per token — split.go NewlineSplitFunc); returns (tokens,
    remaining partial)."""
    if "\n" not in buf:
        return [], buf
    head, _, rest = buf.rpartition("\n")
    toks = head.split("\n")
    return [t[:-1] if t.endswith("\r") else t for t in toks], rest


def _drain_stream(read_chunk, max_records: int | None, block_lines: int,
                  encoding: str) -> list[pa.Table]:
    """Drain a byte stream (socket/FIFO) to EOF or ``max_records``
    entries with NewlineSplitFunc semantics; the unterminated trailing
    partial is an entry (bufio.Scanner's EOF token) unless the cap hit
    first.  Bytes decode incrementally, so a multibyte character split
    across two chunks is kept whole (a stream that ENDS mid-character
    raises UnicodeDecodeError).  Returns block-sized Arrow tables (at
    least one)."""
    tables: list[pa.Table] = []
    rows: list[str] = []
    done = False

    def flush():
        tables.append(pa.table({"text": pa.array(rows, pa.string())}))
        rows.clear()

    decoder = codecs.getincrementaldecoder(encoding)()
    partial = ""
    while not done:
        data = read_chunk()
        if not data:
            decoder.decode(b"", final=True)
            break
        toks, partial = _split_stream(partial + decoder.decode(data))
        for t in toks:
            rows.append(t)
            if max_records is not None \
                    and sum(x.num_rows for x in tables) + len(rows) \
                    >= max_records:
                done = True
                break
            if len(rows) >= block_lines:
                flush()
    if not done and partial:
        rows.append(partial)
    if rows or not tables:
        flush()
    return tables


_OCTET_RE = __import__("re").compile(rb"^[1-9]\d*\s")


def _split_octet_frames(buf: bytes) -> tuple[list[bytes], bytes]:
    """RFC 6587 octet-counting framing (reference syslog input
    newOctetFrameSplitFunc, input.go:54-84): each frame is
    ``<len><space><len bytes of message>``.  Complete frames yield the
    MESSAGE bytes (prefix stripped — the parser-facing payload; the
    reference hands prefix+message to its octet-aware syslog parser,
    which strips it there).  Returns (messages, unconsumed tail)."""
    toks: list[bytes] = []
    while True:
        m = _OCTET_RE.match(buf)
        if not m:
            break
        n = int(buf[:m.end() - 1])
        end = m.end() + n
        if end > len(buf):
            break
        toks.append(buf[m.end():end])
        buf = buf[end:]
    return toks, buf


def _drain_octet(read_chunk, max_records: int | None, block_lines: int,
                 encoding: str) -> list[pa.Table]:
    """Octet-framed variant of _drain_stream; at EOF a leftover that is
    not a complete frame is flushed raw (the reference's flushAtEOF)."""
    tables: list[pa.Table] = []
    rows: list[str] = []
    done = False

    def flush():
        tables.append(pa.table({"text": pa.array(rows, pa.string())}))
        rows.clear()

    buf = b""
    while not done:
        data = read_chunk()
        if not data:
            break
        buf += data
        toks, buf = _split_octet_frames(buf)
        for t in toks:
            rows.append(t.decode(encoding))
            if max_records is not None \
                    and sum(x.num_rows for x in tables) + len(rows) \
                    >= max_records:
                done = True
                break
            if len(rows) >= block_lines:
                flush()
    if not done and buf:
        rows.append(buf.decode(encoding))
    if rows or not tables:
        flush()
    return tables


def read_stdin_log(max_records: int | None = None, stream=None,
                   encoding: str = "utf-8",
                   block_lines: int = _DEFAULT_BLOCK_LINES):
    """stanza stdin input analog (reference
    pkg/stanza/operator/input/stdin — bufio.Scanner over os.Stdin):
    drain the process's standard input (or any binary file-like
    ``stream``) to EOF with newline split semantics."""
    import sys

    import ray.data as rd

    f = stream if stream is not None else sys.stdin.buffer
    tables = _drain_stream(lambda: f.read(1 << 16), max_records,
                           block_lines, encoding)
    return rd.from_arrow(tables)


def read_namedpipe_log(path: str, max_records: int | None = None,
                       encoding: str = "utf-8", create: bool = True,
                       mode: int = 0o622,
                       block_lines: int = _DEFAULT_BLOCK_LINES):
    """stanza namedpipe input analog (reference
    pkg/stanza/operator/input/namedpipe/input.go — mkfifo with the
    configured mode, then consume the pipe like a file stream): create
    the FIFO if absent, block until a writer connects, drain to the
    writer's EOF (or ``max_records``) with the same NewlineSplitFunc
    semantics as the tcp/udp seams, return a Dataset of ``text`` rows
    feeding the same downstream step DAG."""
    import os

    import ray.data as rd

    if create and not os.path.exists(path):
        os.mkfifo(path, mode)
    with open(path, "rb") as f:
        tables = _drain_stream(lambda: f.read(1 << 16), max_records,
                               block_lines, encoding)
    return rd.from_arrow(tables)


def read_tcp_log(host: str, port: int, max_records: int | None = None,
                 add_attributes: bool = False, encoding: str = "utf-8",
                 timeout: float = 30.0, framing: str = "newline",
                 block_lines: int = _DEFAULT_BLOCK_LINES):
    """Bounded TCP ingest: connect, drain to EOF (or ``max_records``
    entries), return a ``ray.data.Dataset`` with one ``text`` row per
    log entry — the schema ``read_log_lines`` emits, so the same stanza
    step DAG runs downstream unchanged.

    ``add_attributes=True`` appends the input.go:174-190 net.* columns
    (transport, peer ip/port, host ip/port; ports as STRINGS, matching
    the reference's strconv.FormatInt attributes).  Rows accumulate in
    ``block_lines``-sized Arrow tables so a large replay becomes many
    blocks, not one.

    ``framing="octet"`` switches to RFC 6587 octet-counting frames
    (the syslog-over-TCP wire form; reference syslog input
    OctetSplitFuncBuilder) — complete frames yield the message bytes,
    an incomplete EOF leftover flushes raw."""
    import ray.data as rd

    if framing not in ("newline", "octet"):
        raise ValueError(f"unknown framing: {framing!r}")
    drain = _drain_stream if framing == "newline" else _drain_octet
    sock = socket.create_connection((host, port), timeout=timeout)
    peer_ip, peer_port = sock.getpeername()[:2]
    host_ip, host_port = sock.getsockname()[:2]
    try:
        tables = drain(lambda: sock.recv(1 << 16), max_records,
                       block_lines, encoding)
    finally:
        sock.close()

    if add_attributes:
        attrs = {"net.transport": "IP.TCP",
                 "net.peer.ip": str(peer_ip),
                 "net.peer.port": str(peer_port),
                 "net.peer.name": str(peer_ip),
                 "net.host.ip": str(host_ip),
                 "net.host.port": str(host_port),
                 "net.host.name": str(host_ip)}
        out = []
        for t in tables:
            for k, v in attrs.items():
                t = t.append_column(k, pa.array([v] * t.num_rows,
                                                pa.string()))
            out.append(t)
        tables = out
    return rd.from_arrow(tables)


def send_lines_udp(lines: Sequence[str], port: int, batch: int = 100,
                   host: str = "127.0.0.1",
                   pace_us: int = 1000) -> None:
    """Replay sender (the testbed TCPUDPWriter udp side): one datagram
    per ``batch`` newline-joined lines.  ``pace_us`` sleeps between
    datagrams (default 1 ms): an unpaced burst overruns the kernel's
    default ~212 KB receive buffer while the in-process receiver
    contends for the GIL, and UDP silently drops the overflow — pacing
    keeps the backlog at ~one datagram so a bounded replay is
    lossless in practice (UDP still guarantees nothing; the reference
    testbed tolerates loss, a correctness fixture must avoid it)."""
    import time

    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        for i in range(0, len(lines), batch):
            s.sendto(("\n".join(lines[i:i + batch]) + "\n").encode("utf-8"),
                     (host, port))
            if pace_us:
                time.sleep(pace_us / 1e6)
    finally:
        s.close()


def read_udp_log(max_records: int, port: int | None = None,
                 host: str = "127.0.0.1", add_attributes: bool = False,
                 encoding: str = "utf-8", timeout: float = 30.0,
                 on_ready=None, block_lines: int = _DEFAULT_BLOCK_LINES):
    """Bounded UDP ingest (stanza udp input analog,
    pkg/stanza/operator/input/udp/input.go:93-227): bind a datagram
    socket, split EACH packet with the newline splitFunc (a packet is a
    message boundary, so its unterminated tail is an entry), stop after
    ``max_records`` entries — UDP has no EOF, so the bound is the
    contract.  ``on_ready(port)`` fires once the socket is bound (start
    the replay sender there).  Returns a Dataset with one ``text`` row
    per entry (+ net.* columns when ``add_attributes``; peer columns
    come from the LAST sender, matching the reference's per-entry
    remoteAddr collapsed to one bounded replay source)."""
    import ray.data as rd

    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    # as large a receive buffer as the kernel allows (clamped by
    # net.core.rmem_max): datagrams queue in the kernel while the
    # receiver loop runs, so buffer size bounds the lossless burst
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
    except OSError:
        pass
    sock.settimeout(timeout)
    sock.bind((host, port or 0))
    bound_port = sock.getsockname()[1]
    if on_ready is not None:
        on_ready(bound_port)
    tables: list[pa.Table] = []
    rows: list[str] = []
    peer = (host, 0)

    def flush():
        tables.append(pa.table({"text": pa.array(rows, pa.string())}))
        rows.clear()

    try:
        while sum(t.num_rows for t in tables) + len(rows) < max_records:
            data, peer = sock.recvfrom(1 << 16)
            toks, partial = _split_stream(data.decode(encoding))
            if partial:
                toks.append(partial)  # packet boundary flushes the tail
            for t in toks:
                rows.append(t)
                if sum(x.num_rows for x in tables) + len(rows) \
                        >= max_records:
                    break
                if len(rows) >= block_lines:
                    flush()
    finally:
        sock.close()
    if rows or not tables:
        flush()

    if add_attributes:
        attrs = {"net.transport": "IP.UDP",
                 "net.peer.ip": str(peer[0]),
                 "net.peer.port": str(peer[1]),
                 "net.peer.name": str(peer[0]),
                 "net.host.ip": host,
                 "net.host.port": str(bound_port),
                 "net.host.name": host}
        out = []
        for t in tables:
            for k, v in attrs.items():
                t = t.append_column(k, pa.array([v] * t.num_rows,
                                                pa.string()))
            out.append(t)
        tables = out
    return rd.from_arrow(tables)
