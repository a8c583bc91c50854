import random
import zlib

import pytest


@pytest.fixture
def rng(request):
    # seed from the test name so failures replay without extra flags; str
    # hashes are salted per process, so use a stable checksum instead
    return random.Random(zlib.crc32(request.node.name.encode()))
