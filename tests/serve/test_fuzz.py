"""Protocol fuzzing: malformed bytes must fail typed, never hang.

Two layers of attack surface:

* the **codec** (`repro.serve.framing` / `repro.serve.wire`) must be
  total over arbitrary byte strings -- truncations, lying length
  prefixes, unknown tags, bit flips, and pure garbage all raise
  :class:`~repro.errors.WireFormatError` (or its
  :class:`~repro.errors.FrameTooLargeError` subclass), never
  ``struct.error``, ``MemoryError``, or a silent wrong answer;
* the **live server** must contain the damage to the offending
  connection: an error frame is sent, other connections keep working,
  and no connection slot leaks.

Every async body runs under the ``run()`` hang guard from conftest, so
a protocol bug that wedges the event loop fails the test instead of
the suite.
"""

from __future__ import annotations

import asyncio
import struct

import numpy as np
import pytest

from repro.errors import FrameTooLargeError, ReproError, WireFormatError
from repro.geometry.box import Box
from repro.net.messages import RegionRequest, RetrieveRequest
from repro.serve import framing, wire
from repro.serve.client import ServeClient
from repro.serve.framing import (
    MAGIC,
    PROTOCOL_VERSION,
    MessageTag,
    encode_frame,
    read_frame,
)
from repro.server.server import Server

from tests.serve.conftest import run, serving
from tests.serve.test_wire_roundtrip import random_request, random_response

SEEDS = list(range(20))

KNOWN_TAGS = {int(tag) for tag in MessageTag}


def sample_request_frame(seed: int = 5) -> bytes:
    return wire.to_bytes(random_request(np.random.default_rng(seed)))


def sample_response_frame(seed: int = 5) -> bytes:
    return wire.to_bytes(random_response(np.random.default_rng(seed)))


def simple_request(client_id: int = 0, timestamp: float = 0.0) -> RetrieveRequest:
    return RetrieveRequest(
        timestamp=timestamp,
        client_id=client_id,
        regions=(RegionRequest(Box((0.0, 0.0), (1000.0, 1000.0)), 0.0, 1.0),),
    )


# -- codec totality ----------------------------------------------------------


class TestFramingRejects:
    def test_every_truncation_point_raises(self):
        frame = sample_request_frame()
        for cut in range(len(frame)):
            with pytest.raises(WireFormatError):
                wire.from_bytes(frame[:cut])

    def test_trailing_bytes_raise(self):
        frame = sample_request_frame()
        with pytest.raises(WireFormatError, match="trailing"):
            wire.from_bytes(frame + b"\x00")

    def test_bad_magic(self):
        frame = b"XX" + sample_request_frame()[2:]
        with pytest.raises(WireFormatError, match="magic"):
            wire.from_bytes(frame)

    def test_foreign_version(self):
        frame = bytearray(sample_request_frame())
        frame[2] = PROTOCOL_VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            wire.from_bytes(bytes(frame))

    def test_unknown_tags_rejected(self):
        payload = wire.encode_request(simple_request())
        for tag in (0, 8, 99, 255):
            assert tag not in KNOWN_TAGS or tag == 0
            with pytest.raises(WireFormatError):
                wire.from_bytes(encode_frame(tag, payload))

    def test_error_frame_is_not_a_message(self):
        frame = encode_frame(
            MessageTag.ERROR, wire.encode_error(wire.ErrorCode.INTERNAL, "x")
        )
        with pytest.raises(WireFormatError):
            wire.from_bytes(frame)

    def test_oversized_length_prefix(self):
        header = struct.pack(
            "<2sBBI", MAGIC, PROTOCOL_VERSION, int(MessageTag.REQUEST), 2**31
        )
        with pytest.raises(FrameTooLargeError):
            framing.parse_header(header)
        with pytest.raises(FrameTooLargeError):
            wire.from_bytes(header)

    def test_length_cap_is_configurable(self):
        frame = sample_request_frame()
        with pytest.raises(FrameTooLargeError):
            wire.from_bytes(frame, max_frame_bytes=4)

    def test_frame_too_large_is_a_wire_format_error(self):
        # One except-clause catches both stream-level failure modes.
        assert issubclass(FrameTooLargeError, WireFormatError)


class TestPayloadDecodersAreTotal:
    """No payload decoder may raise anything but WireFormatError."""

    DECODERS = (
        wire.decode_request,
        wire.decode_response,
        wire.decode_batch,
        wire.decode_invalidation,
        wire.decode_error,
    )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_garbage(self, seed: int):
        rng = np.random.default_rng(3000 + seed)
        for _ in range(60):
            blob = rng.bytes(int(rng.integers(0, 200)))
            for decode in self.DECODERS:
                with pytest.raises(WireFormatError):
                    decode(blob)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mutated_valid_frames(self, seed: int):
        """Bit flips in a valid frame decode or fail typed -- nothing else."""
        rng = np.random.default_rng(4000 + seed)
        frame = bytearray(sample_response_frame(seed))
        for _ in range(120):
            mutated = bytearray(frame)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(0, len(mutated)))
                mutated[pos] = int(rng.integers(0, 256))
            try:
                wire.from_bytes(bytes(mutated))
            except WireFormatError:
                pass  # typed rejection is a correct outcome

    def test_lying_inner_count_fails_before_allocating(self):
        """A batch header claiming 2**31 rows dies at the cursor bounds
        check, not in a multi-gigabyte ``np.zeros``."""
        payload = struct.pack("<I", 2**31)
        with pytest.raises(WireFormatError, match="truncated"):
            wire.decode_batch(payload)

    def test_lying_exclude_count(self):
        good = wire.encode_request(simple_request())
        # The exclude count is the last u32 (empty set): inflate it.
        payload = good[:-4] + struct.pack("<I", 2**31)
        with pytest.raises(WireFormatError, match="truncated"):
            wire.decode_request(payload)

    def test_region_count_zero_rejected(self):
        good = wire.encode_request(simple_request())
        # Region count follows timestamp + client_id + epoch.
        payload = good[:24] + struct.pack("<I", 0) + good[28:]
        with pytest.raises(WireFormatError, match="region count"):
            wire.decode_request(payload)

    def test_non_finite_floats_rejected(self):
        request = simple_request()
        payload = bytearray(wire.encode_request(request))
        payload[0:8] = struct.pack("<d", float("nan"))  # timestamp
        with pytest.raises(WireFormatError, match="non-finite"):
            wire.decode_request(bytes(payload))

    def test_inverted_box_rejected(self):
        request = simple_request()
        payload = bytearray(wire.encode_request(request))
        # Region low/high follow timestamp+client_id+epoch+count+ndim.
        offset = 8 + 8 + 8 + 4 + 1
        payload[offset : offset + 8] = struct.pack("<d", 1e9)  # low[0] > high[0]
        with pytest.raises(WireFormatError, match="malformed request"):
            wire.decode_request(bytes(payload))

    def test_out_of_range_uid_components_rejected(self):
        """A packed uid whose fields overflow the store limits is caught
        when the receiver re-packs the columns.  All ten level bits set
        decodes to level 1022, one past the packable maximum."""
        payload = struct.pack("<I", 1) + struct.pack("<q", 1023 << 32)
        payload += struct.pack("<d", 0.5)
        payload += b"\x00" * (8 * 3 * 4)  # sup_low/high, position, payload
        payload += struct.pack("<q", 0)
        with pytest.raises(WireFormatError):
            wire.decode_batch(payload)

    def test_bad_utf8_error_message(self):
        payload = struct.pack("<HI", 1, 2) + b"\xff\xfe"
        with pytest.raises(WireFormatError, match="utf-8"):
            wire.decode_error(payload)


# -- live server containment --------------------------------------------------


async def open_raw(port: int) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    return await asyncio.open_connection("127.0.0.1", port)


async def read_error(reader: asyncio.StreamReader) -> tuple[int, str]:
    frame = await read_frame(reader)
    assert frame is not None, "expected an error frame before EOF"
    tag, payload = frame
    assert tag == MessageTag.ERROR
    return wire.decode_error(payload)


class TestLiveServerFuzz:
    def test_garbage_stream_gets_error_and_close(self, tiny_serve_server):
        async def scenario():
            async with serving(tiny_serve_server) as service:
                reader, writer = await open_raw(service.port)
                writer.write(b"GARBAGE-NOT-A-FRAME" * 4)
                await writer.drain()
                code, message = await read_error(reader)
                assert code == wire.ErrorCode.MALFORMED
                assert "magic" in message
                assert await read_frame(reader) is None  # server closed
                writer.close()
                await asyncio.sleep(0.05)
                assert service.connection_count == 0
                assert service.stats.wire_errors == 1

        run(scenario())

    def test_oversized_prefix_costs_header_bytes_only(self, tiny_serve_server):
        async def scenario():
            async with serving(tiny_serve_server) as service:
                reader, writer = await open_raw(service.port)
                writer.write(
                    struct.pack(
                        "<2sBBI",
                        MAGIC,
                        PROTOCOL_VERSION,
                        int(MessageTag.REQUEST),
                        2**31,
                    )
                )
                await writer.drain()
                code, message = await read_error(reader)
                assert code == wire.ErrorCode.MALFORMED
                assert "cap" in message
                assert await read_frame(reader) is None
                writer.close()

        run(scenario())

    def test_unknown_tag_is_recoverable(self, tiny_serve_server):
        """A valid frame with a foreign tag draws an UNSUPPORTED error,
        and the *same* connection still answers real requests."""

        async def scenario():
            async with serving(tiny_serve_server) as service:
                reader, writer = await open_raw(service.port)
                writer.write(encode_frame(99, b"\x01\x02\x03"))
                writer.write(
                    encode_frame(
                        MessageTag.REQUEST,
                        wire.encode_request(simple_request()),
                    )
                )
                await writer.drain()
                code, message = await read_error(reader)
                assert code == wire.ErrorCode.UNSUPPORTED
                assert "99" in message
                frame = await read_frame(reader)
                assert frame is not None and frame[0] == MessageTag.RESPONSE
                response = wire.decode_response(frame[1])
                assert response.record_count > 0
                assert service.connection_count == 1
                writer.close()

        run(scenario())

    def test_malformed_payload_is_recoverable(self, tiny_serve_server):
        async def scenario():
            async with serving(tiny_serve_server) as service:
                reader, writer = await open_raw(service.port)
                writer.write(encode_frame(MessageTag.REQUEST, b"\x00" * 7))
                writer.write(
                    encode_frame(
                        MessageTag.REQUEST,
                        wire.encode_request(simple_request()),
                    )
                )
                await writer.drain()
                code, _ = await read_error(reader)
                assert code == wire.ErrorCode.MALFORMED
                frame = await read_frame(reader)
                assert frame is not None and frame[0] == MessageTag.RESPONSE
                assert service.stats.request_errors == 1
                writer.close()

        run(scenario())

    def test_mid_frame_disconnect_frees_the_slot(self, tiny_serve_server):
        async def scenario():
            async with serving(tiny_serve_server) as service:
                good_frame = encode_frame(
                    MessageTag.REQUEST, wire.encode_request(simple_request())
                )
                _, writer = await open_raw(service.port)
                writer.write(good_frame[: len(good_frame) // 2])
                await writer.drain()
                await asyncio.sleep(0.05)
                assert service.connection_count == 1
                writer.close()
                await writer.wait_closed()
                for _ in range(100):
                    if service.connection_count == 0:
                        break
                    await asyncio.sleep(0.02)
                assert service.connection_count == 0
                assert service.stats.connections_closed == 1

        run(scenario())

    def test_garbage_does_not_corrupt_other_connections(
        self, tiny_serve_server, tiny_city
    ):
        """A healthy client sees byte-identical answers while sibling
        connections spray garbage at the same server.  Ground truth is a
        mirror in-process server replaying the identical request
        sequence, so per-client incremental state evolves in lockstep."""

        async def scenario():
            mirror = Server(tiny_city)
            async with serving(tiny_serve_server) as service:
                async with await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=1
                ) as client:
                    rng = np.random.default_rng(99)
                    for attempt in range(8):
                        reader, writer = await open_raw(service.port)
                        writer.write(rng.bytes(int(rng.integers(1, 64))))
                        await writer.drain()
                        writer.close()
                        request = simple_request(
                            client_id=1, timestamp=float(attempt)
                        )
                        expected = wire.encode_response(
                            mirror.execute_batch(request)
                        )
                        response = await client.retrieve(request)
                        assert wire.encode_response(response) == expected
                assert service.stats.wire_errors >= 1

        run(scenario())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_stream_sweep_never_hangs(self, tiny_serve_server, seed):
        """Many connections each write random bytes; every one is
        answered or dropped, the loop stays live, no slot leaks."""

        async def hammer(port: int, rng: np.random.Generator) -> None:
            reader, writer = await open_raw(port)
            writer.write(rng.bytes(int(rng.integers(1, 256))))
            await writer.drain()
            try:
                while await read_frame(reader) is not None:
                    pass
            except (WireFormatError, ConnectionError, OSError):
                pass
            finally:
                writer.close()

        async def scenario(seed: int):
            async with serving(tiny_serve_server) as service:
                rng = np.random.default_rng(5000 + seed)
                await asyncio.gather(
                    *(hammer(service.port, rng) for _ in range(16))
                )
                for _ in range(100):
                    if service.connection_count == 0:
                        break
                    await asyncio.sleep(0.02)
                assert service.connection_count == 0
                # The server survived: a clean client still gets answers.
                async with await ServeClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    response = await client.retrieve(simple_request())
                    assert response.record_count > 0

        run(scenario(seed))

    def test_client_rejects_oversized_server_frame(self, tiny_serve_server):
        """The cap is symmetric: a client with a small limit fails the
        call with a typed error instead of buffering a huge response."""

        async def scenario():
            async with serving(tiny_serve_server) as service:
                async with await ServeClient.connect(
                    "127.0.0.1", service.port, max_frame_bytes=64
                ) as client:
                    with pytest.raises(ReproError):
                        await client.retrieve(simple_request())

        run(scenario())
