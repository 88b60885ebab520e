"""Tests for the wire protocol encoding and framing."""

import socket
import threading

import pytest

from repro.net.protocol import (
    ConnectionLost,
    ProtocolError,
    decode_key,
    decode_payload,
    decode_row,
    decode_value,
    encode_frame,
    encode_key,
    encode_row,
    encode_value,
    recv_message,
    send_message,
)


class TestValueCodec:
    @pytest.mark.parametrize("value", [1, -5, 2.5, "text", 0, ""])
    def test_scalars_pass_through(self, value):
        assert decode_value(encode_value(value)) == value

    def test_blob_round_trip(self):
        data = bytes(range(256))
        encoded = encode_value(data)
        assert isinstance(encoded, dict)
        assert decode_value(encoded) == data

    def test_bytearray_becomes_bytes(self):
        assert decode_value(encode_value(bytearray(b"ab"))) == b"ab"

    def test_row_round_trip(self):
        row = (1, "x", b"\x00\xff", 2.5)
        assert decode_row(encode_row(row)) == row

    def test_key_none_passthrough(self):
        assert encode_key(None) is None
        assert decode_key(None) is None

    def test_key_round_trip(self):
        key = (1, "net", 12345)
        assert decode_key(encode_key(key)) == key


class _Pipe:
    """A connected local socket pair."""

    def __init__(self):
        self.a, self.b = socket.socketpair()

    def close(self):
        self.a.close()
        self.b.close()


class TestFraming:
    def test_round_trip(self):
        pipe = _Pipe()
        try:
            send_message(pipe.a, {"cmd": "ping", "data": [1, 2, 3]})
            message = recv_message(pipe.b)
            assert message == {"cmd": "ping", "data": [1, 2, 3]}
        finally:
            pipe.close()

    def test_multiple_frames_in_order(self):
        pipe = _Pipe()
        try:
            for index in range(5):
                send_message(pipe.a, {"seq": index})
            for index in range(5):
                assert recv_message(pipe.b) == {"seq": index}
        finally:
            pipe.close()

    def test_eof_raises_connection_lost(self):
        pipe = _Pipe()
        pipe.a.close()
        try:
            with pytest.raises(ConnectionLost):
                recv_message(pipe.b)
        finally:
            pipe.b.close()

    def test_partial_frame_then_eof(self):
        pipe = _Pipe()
        try:
            pipe.a.sendall(b"\x00\x00\x00\x10partial")
            pipe.a.close()
            with pytest.raises(ConnectionLost):
                recv_message(pipe.b)
        finally:
            pipe.b.close()

    def test_garbage_payload_raises_protocol_error(self):
        pipe = _Pipe()
        try:
            pipe.a.sendall(b"\x00\x00\x00\x03abc")
            with pytest.raises(ProtocolError):
                recv_message(pipe.b)
        finally:
            pipe.close()

    def test_non_object_payload_rejected(self):
        pipe = _Pipe()
        try:
            pipe.a.sendall(b"\x00\x00\x00\x02[]")
            with pytest.raises(ProtocolError):
                recv_message(pipe.b)
        finally:
            pipe.close()

    def test_oversized_frame_rejected(self):
        pipe = _Pipe()
        try:
            pipe.a.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(ProtocolError):
                recv_message(pipe.b)
        finally:
            pipe.close()

    def test_large_frame_ok(self):
        pipe = _Pipe()
        received = {}

        def reader():
            received["msg"] = recv_message(pipe.b)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            send_message(pipe.a, {"blob": "x" * 1_000_000})
            thread.join(timeout=10)
            assert received["msg"]["blob"] == "x" * 1_000_000
        finally:
            pipe.close()


class TestBlockAttachment:
    """``[0x00][u32 header length][JSON header][block bytes]``."""

    MESSAGE = {"ok": True, "types": ["int64"], "block": b"\x03\x00{\xff"}

    def test_layout_and_round_trip(self):
        frame = encode_frame(self.MESSAGE)
        header = b'{"ok": true, "types": ["int64"]}'
        payload = b"\x00" + len(header).to_bytes(4, "big") + header \
            + self.MESSAGE["block"]
        assert frame == len(payload).to_bytes(4, "big") + payload
        pipe = _Pipe()
        try:
            pipe.a.sendall(frame)
            assert recv_message(pipe.b) == self.MESSAGE
        finally:
            pipe.close()

    def test_a_message_without_a_block_is_plain_json(self):
        frame = encode_frame({"ok": True, "row": None})
        assert frame[4:] == b'{"ok": true, "row": null}'

    def test_an_empty_attachment_survives(self):
        message = {"ok": True, "block": b""}
        assert decode_payload(encode_frame(message)[4:]) == message

    @pytest.mark.parametrize("payload", [
        b"\x00",
        b"\x00\x00\x00\x00",
        b"\x00\x00\x00\x00\x20{}",
        b"\x00\xff\xff\xff\xff{}",
        b"\x00\x00\x00\x00\x02[]",
        b"\x00\x00\x00\x00\x03{x}",
    ], ids=["mark-only", "short-length", "overrun", "huge-overrun",
            "header-not-object", "header-not-json"])
    def test_a_bad_container_is_a_protocol_error(self, payload):
        with pytest.raises(ProtocolError):
            decode_payload(payload)

    def test_a_frame_with_an_attachment_is_bounded_whole(self, monkeypatch):
        from repro.net import protocol

        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        encode_frame({"ok": True, "block": b"x" * 32})
        with pytest.raises(ProtocolError, match="frame too large"):
            encode_frame({"ok": True, "block": b"x" * 64})
