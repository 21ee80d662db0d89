import pyarrow as pa

from open_telemetry_opentelemetry_collector_contrib_ray.sources.push import (
    _split_stream,
    read_tcp_log,
    serve_lines_tcp,
)


def test_split_stream_newline_semantics():
    toks, rest = _split_stream("a\r\nb\nc")
    assert toks == ["a", "b"] and rest == "c"
    toks, rest = _split_stream("no newline yet")
    assert toks == [] and rest == "no newline yet"
    toks, rest = _split_stream("x\n")
    assert toks == ["x"] and rest == ""


def test_tcp_replay_roundtrip_batch100():
    # the testbed tcp-batch-100 shape: 250 lines sent 100 per write;
    # the bounded reader must recover every line in order
    lines = [f"line-{i:04d} payload" for i in range(250)]
    port, stop = serve_lines_tcp(lines, batch=100)
    try:
        ds = read_tcp_log("127.0.0.1", port, block_lines=64)
        got = [r["text"] for r in ds.take_all()]
    finally:
        stop.set()
    assert got == lines


def test_drain_stream_multibyte_split_across_chunks():
    from open_telemetry_opentelemetry_collector_contrib_ray.sources.push import (
        _drain_stream,
    )

    # "é" is b"\xc3\xa9": the first chunk ends mid-character
    chunks = iter([b"caf\xc3", b"\xa9\nna\xc3", b"\xafve", b""])
    tables = _drain_stream(lambda: next(chunks), None, 64, "utf-8")
    assert pa.concat_tables(tables).column("text").to_pylist() == \
        ["caf\u00e9", "na\u00efve"]


def test_tcp_replay_survives_early_disconnect():
    import socket

    # enough bytes that the server is still sending when client 1 leaves
    lines = [f"line-{i:06d} " + "x" * 48 for i in range(200_000)]
    port, stop = serve_lines_tcp(lines, batch=100)
    try:
        early = socket.create_connection(("127.0.0.1", port), timeout=10)
        early.recv(1024)
        early.close()  # unread data queued -> the server's send fails
        ds = read_tcp_log("127.0.0.1", port, block_lines=65_536)
        got = ds.to_pandas()["text"].tolist()
    finally:
        stop.set()
    assert got == lines


def test_tcp_replay_max_records_and_attributes():
    lines = ["a", "b", "c", "d"]
    port, stop = serve_lines_tcp(lines, batch=1)
    try:
        ds = read_tcp_log("127.0.0.1", port, max_records=2,
                          add_attributes=True)
        rows = ds.take_all()
    finally:
        stop.set()
    assert [r["text"] for r in rows] == ["a", "b"]
    # net.* attribute columns per input.go:174-190 (ports as strings)
    assert rows[0]["net.transport"] == "IP.TCP"
    assert rows[0]["net.peer.ip"] == "127.0.0.1"
    assert rows[0]["net.peer.port"] == str(port)
    assert rows[0]["net.host.port"].isdigit()


def test_tcp_replay_trailing_partial_emitted():
    # an unterminated final token is an entry (bufio.Scanner EOF flush)
    port, stop = serve_lines_tcp(["full"], batch=1)
    stop.set()  # replace with a raw one-shot server for the partial
    import socket
    import threading

    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    p = srv.getsockname()[1]

    def run():
        conn, _ = srv.accept()
        conn.sendall(b"first\nsecond-no-newline")
        conn.close()
        srv.close()

    threading.Thread(target=run, daemon=True).start()
    ds = read_tcp_log("127.0.0.1", p)
    assert [r["text"] for r in ds.take_all()] == ["first",
                                                  "second-no-newline"]


def test_tcp_replay_feeds_parse_dag():
    # the seam: replayed rows run the same stanza step DAG as file input
    from open_telemetry_opentelemetry_collector_contrib_ray.stages.parse import (
        RegexParser,
    )

    lines = ["ts=1 level=ERROR msg=boom", "ts=2 level=INFO msg=ok"]
    port, stop = serve_lines_tcp(lines, batch=100)
    try:
        ds = read_tcp_log("127.0.0.1", port)
        parser = RegexParser(
            r"^ts=(?P<ts>\d+) level=(?P<level>[A-Z]+) msg=(?P<msg>\w+)$")
        out = ds.map_batches(parser, batch_format="pyarrow").to_pandas()
    finally:
        stop.set()
    assert list(out["attr_level"]) == ["ERROR", "INFO"]


def test_udp_replay_roundtrip_and_packet_tail():
    import threading

    from open_telemetry_opentelemetry_collector_contrib_ray.sources.push import (
        read_udp_log,
        send_lines_udp,
    )

    lines = [f"udp-{i}" for i in range(120)]

    def sender(port):
        threading.Thread(target=send_lines_udp, args=(lines, port),
                         kwargs={"batch": 50}, daemon=True).start()

    ds = read_udp_log(max_records=120, on_ready=sender, block_lines=32)
    got = [r["text"] for r in ds.take_all()]
    assert got == lines  # per-packet tail emitted, order preserved


def test_udp_replay_attributes_and_bound():
    import threading

    from open_telemetry_opentelemetry_collector_contrib_ray.sources.push import (
        read_udp_log,
        send_lines_udp,
    )

    def sender(port):
        threading.Thread(target=send_lines_udp,
                         args=(["a", "b", "c"], port),
                         kwargs={"batch": 1}, daemon=True).start()

    ds = read_udp_log(max_records=2, on_ready=sender, add_attributes=True)
    rows = ds.take_all()
    assert [r["text"] for r in rows] == ["a", "b"]
    assert rows[0]["net.transport"] == "IP.UDP"
    assert rows[0]["net.host.ip"] == "127.0.0.1"
    assert rows[0]["net.peer.port"].isdigit()


def test_namedpipe_replay(tmp_path):
    import threading

    from open_telemetry_opentelemetry_collector_contrib_ray.sources.push import (
        read_namedpipe_log,
    )

    p = str(tmp_path / "graft.pipe")
    lines = [f"pipe-{i}" for i in range(300)]

    def writer():
        with open(p, "w") as f:
            f.write("\n".join(lines) + "\n")

    # reader creates the fifo; writer opens it once it exists
    def delayed_writer():
        import os
        import time

        while not os.path.exists(p):
            time.sleep(0.01)
        writer()

    threading.Thread(target=delayed_writer, daemon=True).start()
    ds = read_namedpipe_log(p, block_lines=64)
    assert [r["text"] for r in ds.take_all()] == lines


def test_namedpipe_max_records_and_partial(tmp_path):
    import threading

    from open_telemetry_opentelemetry_collector_contrib_ray.sources.push import (
        read_namedpipe_log,
    )

    p = str(tmp_path / "g2.pipe")

    def delayed_writer():
        import os
        import time

        while not os.path.exists(p):
            time.sleep(0.01)
        with open(p, "w") as f:
            f.write("a\nb\nc-no-newline")

    threading.Thread(target=delayed_writer, daemon=True).start()
    ds = read_namedpipe_log(p)
    assert [r["text"] for r in ds.take_all()] == ["a", "b", "c-no-newline"]


def test_octet_frame_split():
    from open_telemetry_opentelemetry_collector_contrib_ray.sources.push import (
        _split_octet_frames,
    )

    toks, rest = _split_octet_frames(b"5 hello3 foo")
    assert toks == [b"hello", b"foo"] and rest == b""
    # incomplete frame stays buffered
    toks, rest = _split_octet_frames(b"20 only-seven")
    assert toks == [] and rest == b"20 only-seven"
    # message containing digits+space is NOT re-framed (length-driven)
    toks, rest = _split_octet_frames(b"4 12 x")
    assert toks == [b"12 x"] and rest == b""


def test_tcp_octet_framing_syslog():
    import socket
    import threading

    from open_telemetry_opentelemetry_collector_contrib_ray.sources.push import (
        read_tcp_log,
    )

    msgs = [f"<34>1 2024-01-01T00:00:0{i}Z host app - - - msg {i}"
            for i in range(5)]
    framed = b"".join(f"{len(m.encode())} ".encode() + m.encode()
                      for m in msgs)
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    port = srv.getsockname()[1]

    def run():
        conn, _ = srv.accept()
        # split mid-frame to exercise re-buffering
        conn.sendall(framed[:17])
        conn.sendall(framed[17:])
        conn.close()
        srv.close()

    threading.Thread(target=run, daemon=True).start()
    ds = read_tcp_log("127.0.0.1", port, framing="octet")
    assert [r["text"] for r in ds.take_all()] == msgs


def test_tcp_unknown_framing():
    import pytest

    from open_telemetry_opentelemetry_collector_contrib_ray.sources.push import (
        read_tcp_log,
    )

    with pytest.raises(ValueError, match="framing"):
        read_tcp_log("127.0.0.1", 1, framing="weird")


def test_stdin_replay_stream():
    import io

    from open_telemetry_opentelemetry_collector_contrib_ray.sources.push import (
        read_stdin_log,
    )

    ds = read_stdin_log(stream=io.BytesIO(b"one\ntwo\r\nthree"))
    assert [r["text"] for r in ds.take_all()] == ["one", "two", "three"]


def test_journald_parser_fields_and_failures():
    import json

    import pyarrow as pa

    from open_telemetry_opentelemetry_collector_contrib_ray.stages.parse import (
        JournaldParser,
    )

    lines = [
        json.dumps({"__REALTIME_TIMESTAMP": "1587047866229555",
                    "__CURSOR": "s=abc;i=1", "MESSAGE": "unit ok",
                    "PRIORITY": "6", "_SYSTEMD_UNIT": "app.service"}),
        # MESSAGE as journald byte array -> string (input.go:232-243)
        json.dumps({"__REALTIME_TIMESTAMP": "1587047866229600",
                    "__CURSOR": "s=abc;i=2",
                    "MESSAGE": [104, 105], "PRIORITY": "3"}),
        "not json",
        json.dumps({"MESSAGE": "missing ts", "__CURSOR": "x"}),
        json.dumps({"__REALTIME_TIMESTAMP": "5", "MESSAGE": "no cursor"}),
    ]
    out = JournaldParser()(pa.table({"text": pa.array(lines)}))
    assert out.column("parse_failure").to_pylist() == \
        [False, False, True, True, True]
    assert out.column("cursor").to_pylist()[:2] == ["s=abc;i=1", "s=abc;i=2"]
    assert out.column("attr_MESSAGE").to_pylist()[:2] == ["unit ok", "hi"]
    assert out.column("attr__SYSTEMD_UNIT").to_pylist()[0] == "app.service"
    ts = out.column("ts").to_pylist()
    assert ts[0].microsecond == 229555 and ts[2] is None
    # drop mode filters failures
    dropped = JournaldParser(on_error="drop")(
        pa.table({"text": pa.array(lines)}))
    assert dropped.num_rows == 2


def test_windows_event_parser_contract():
    import pyarrow as pa

    from open_telemetry_opentelemetry_collector_contrib_ray.stages.parse import (
        WindowsEventParser,
    )

    xml1 = ('<Event xmlns="http://schemas.microsoft.com/win/2004/08/'
            'events/event"><System><Provider Name="App"/>'
            '<EventID>1000</EventID><Level>2</Level>'
            '<TimeCreated SystemTime="2024-01-02T03:04:05.123456Z"/>'
            '<EventRecordID>42</EventRecordID>'
            '<Channel>Application</Channel><Computer>host1</Computer>'
            '</System><EventData><Data Name="p1">v1</Data>'
            '<Data Name="p2">v2</Data></EventData></Event>')
    # RenderingInfo level (Warning) wins over numeric System level (4);
    # unnamed Data -> JSON array (parseEventData parity)
    xml2 = ('<Event><System><Provider Name="Sec"/><EventID>5</EventID>'
            '<Level>4</Level><EventRecordID>43</EventRecordID></System>'
            '<RenderingInfo><Message>logon ok</Message>'
            '<Level>Warning</Level></RenderingInfo>'
            '<EventData><Data>a</Data><Data>b</Data></EventData></Event>')
    out = WindowsEventParser()(pa.table({
        "text": pa.array([xml1, xml2, "<bad", "<Other/>"])}))
    assert out.column("parse_failure").to_pylist() == \
        [False, False, True, True]
    assert out.column("severity_text").to_pylist()[:2] == ["ERROR", "WARN"]
    assert out.column("event_id").to_pylist()[:2] == [1000, 5]
    assert out.column("record_id").to_pylist()[:2] == [42, 43]
    assert out.column("event_data").to_pylist()[:2] == \
        ['{"p1": "v1", "p2": "v2"}', '["a", "b"]']
    assert out.column("message").to_pylist()[1] == "logon ok"
    ts = out.column("ts").to_pylist()
    assert ts[0].microsecond == 123456 and ts[1] is None
    # level 5 and missing rendered mapping -> DEFAULT
    xml3 = ('<Event><System><Level>5</Level><EventRecordID>1'
            '</EventRecordID></System></Event>')
    out3 = WindowsEventParser()(pa.table({"text": pa.array([xml3])}))
    assert out3.column("severity_text").to_pylist() == ["DEFAULT"]


def test_otlpjson_signal_classification():
    import pyarrow as pa
    import ray.data as rd

    from open_telemetry_opentelemetry_collector_contrib_ray.sources.otlpjson import (
        classify_otlpjson,
    )

    rows = [
        '{ "resourceLogs": [ ] }',
        '{"resourceMetrics": []}',
        '{\n  "resourceSpans": []}',
        '{"resourceLogsX": []}',       # key must match exactly
        ' {"resourceLogs": []}',       # leading space: ^ anchor fails
        "plain text",
        None,
    ]
    out = classify_otlpjson(rd.from_arrow(pa.table({
        "text": pa.array(rows, pa.string())}))).to_pandas()
    assert list(out["signal"]) == ["logs", "metrics", "traces", "invalid",
                                   "invalid", "invalid", "invalid"]
