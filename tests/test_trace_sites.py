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
