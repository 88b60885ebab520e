"""The benchmark harness reaches into the program by name.

``bench/trace.py`` wraps public functions (``RemoteTable.scan``,
``ShardedTable.insert``, ``Table.query``, ...) as span sites, and
``bench/layers.py`` times ``protocol.encode_row`` / ``decode_row``.  A
renamed or deleted one breaks the benchmark, so it fails here, in
tier-1, and not first in the next benchmark run.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import trace  # noqa: E402  (needs the repository root)


def site_id(site):
    owner = getattr(site.owner, "__name__", repr(site.owner))
    return f"{owner}.{site.attr}"


@pytest.mark.parametrize("site", trace.program_sites(), ids=site_id)
def test_every_traced_site_resolves(site):
    assert callable(getattr(site.owner, site.attr, None))


def test_the_row_codec_the_layer_probe_times_exists():
    from repro.net import protocol

    row = (1, "a", b"\x00", 2.5, None)
    assert tuple(protocol.decode_row(protocol.encode_row(row))) == row


def test_the_client_frames_pass_the_traced_protocol_functions():
    """``bench/layers.py`` reads the client's wire time and frame count
    off the ``encode_frame`` / ``recv_message`` spans: a call and a
    pipeline over TCP must still go through both, by name."""
    import threading

    from repro.core import LittleTable
    from repro.net import AsyncLittleTableServer, LittleTableClient

    db = LittleTable()
    recorder = trace.Recorder()
    with AsyncLittleTableServer(db) as server, \
            LittleTableClient(*server.address) as client:
        recorder.install(trace.program_sites())
        try:
            assert client.ping()
            with client.pipeline() as batch:
                replies = [batch.ping() for _ in range(3)]
        finally:
            recorder.uninstall()
    db.close()
    assert all(reply.result() for reply in replies)
    here = threading.get_ident()
    names = [record[2] for record in recorder.records if record[6] == here]
    assert names.count(trace.CLIENT_ENCODE) == 4
    assert names.count(trace.CLIENT_RECV) == 4
