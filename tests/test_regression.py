"""Byte-identity pins: the decision log and the JSON document of fixed runs.

The SHA-256 values were recorded from the implementation that still ran
phase 1 on ``Interval`` objects; the float-only pass states must keep
every float operation, so every byte of the trace and of the JSON.
"""

import hashlib
import random

import pytest

from iwnet import emit_trace, run
from iwnet.cli import _run_json

from helpers import (
    random_degenerate_network,
    random_network,
    with_isolated_vertices,
    with_zero_lower_bounds,
)


def _networks():
    rng = random.Random(101)
    yield "dense12", random_network(rng, 12)
    yield "sparse60", random_network(rng, 60, density=0.08)
    yield "sparse200", random_network(rng, 200, density=0.03)
    yield "degenerate40", random_degenerate_network(rng, 40, density=0.1)
    yield "zero_lo_isolated30", with_isolated_vertices(
        with_zero_lower_bounds(random_network(rng, 30, density=0.15), rng, 0.5), rng, 3
    )
    yield "all_zero_lo25", with_zero_lower_bounds(random_network(rng, 25, density=0.2), rng, 1.0)


PINNED = {
    ('dense12', 'cl'): ('a88c7807021667b3bc6d3416fcc74c84750b9b7e43d98fdb3943c9bdc21d0092',
        'a4e1bf0ebd0c99786569f5b67cdbf00d836d798c04632f9d78a2c033ca4d69aa'),
    ('dense12', 'hl'): ('97ccc0f56f844444705a50eb532b34ad946a5accb3a3b0d424cd9a11786c2cee',
        'afec8e7df9fabfa393fdf0ae0fbd94f1121bf3471fb37b9b5d1c879837dca061'),
    ('dense12', 'midpoint'): ('9d159036f72743b42c8e4538feb732d9d776bcfb62fe973ec7a685b185f30d52',
        '3b796ddfae6b205d4d2144e63d1b496f87882ddac82886caa1f4720f40d37031'),
    ('sparse60', 'cl'): ('1ad673617bfb1e6d422d68fa2a75792210da0ab5269e202a32b3f2680f7d2444',
        '5a8b387faea0b73986d13780b161a4bebc848306b347b54b4618eaac8fccb868'),
    ('sparse60', 'hl'): ('20634367d4628a7ef577a9aaa1dacab171f4d0a7fcbd41e0011d76b631ea51d1',
        '5a951924be48c91ede325134c39cc466c8a8ecd59921859136c9419e39800da0'),
    ('sparse60', 'midpoint'): ('7bda850f087c6af90f3f87e83dddf6a7384564e7b1187aab0ee4a8844f91eb5b',
        '1526d9c0080aa9196a118d2b4bd57615e97be8c2712da91566a87138be3f3e24'),
    ('sparse200', 'cl'): ('99fbbfd90b6085e46bab056994461522961580193b468846a6056e4504875e94',
        'bd35a271d4c565680c26f3bb2c699e5e96de5db44f26bec277dd64ea9fa4030b'),
    ('sparse200', 'hl'): ('1d823eee721aee8c5438d4ee11abbca56f3188c6d892f1ff197377f82c8fae90',
        '636230464bca6258c86f0b66dce1429dab790220fb2771772910dc11e65094dd'),
    ('sparse200', 'midpoint'): ('8e8b87df9fe153bc4b59c36436284bd4d0eacc28095a1adf72301004d49c6550',
        'eec27045c28444e9e32d4b92b46dded4f2a5caf63b3dc5a7fd7dd0d0dfaec7af'),
    ('degenerate40', 'cl'): ('c45cf6f434a18d87c80b78dcef338449bb92e83e044215b7958848c197cd6ad7',
        '7c000e3fd99b227db773498b51dcf9bdb661a17c1378750c243651208013d243'),
    ('degenerate40', 'hl'): ('d8696bb30846bbf00533c0353bf267eab54618b450826586d67842d6f9fe49cc',
        '23311e5221d7b47baf2a15273224db65aae299d5c83afcafa1264fab0930e1ac'),
    ('degenerate40', 'midpoint'): ('c45cf6f434a18d87c80b78dcef338449bb92e83e044215b7958848c197cd6ad7',
        '9fb0aa833b5f8405e0f40647115361cb8ec1c6abbba6e98278396e5a925e7232'),
    ('zero_lo_isolated30', 'cl'): ('5155a123243a731eee028998fda72a243ab005c8ab13bb7adf7cb0a126a66aec',
        '34cf2166d37108323150647307bbe5b312c5fe90453db7ff717f2dca3fd49e9b'),
    ('zero_lo_isolated30', 'hl'): ('e12ccea60b84fe216524a0f150685b1ad0c2d59e0653c75aeb2cf8e9e060d54e',
        '67ef16539d6347d44a2c5ec70abe880eb8f22f5c7893224083867c3c0f5a89e8'),
    ('zero_lo_isolated30', 'midpoint'): ('58a8779b7aa7199b37fcfad8c9b54be477b47f5f3a88da5b21fd9ace8a021a79',
        'b15065e783cb2fd8c2820dbbc46fbe61e86f4b74d14f19297c1abbd23f0347cc'),
    ('all_zero_lo25', 'cl'): ('c430abc6ee9bbff935a0cf944725416be66f443a9b538543d988209b7c3b1e28',
        '81ccd100242b7d3bf17fd103162e4b0ab93392ee376db2d6c234b4a46f611e99'),
    ('all_zero_lo25', 'hl'): ('899fc21498fe654155fe002cfd03a432d880add2a1a4a498fe48a7b00e589a98',
        'a583a6c0646a92ee531e3669a18af4759f8312b4d23defef44b52bc66e503c03'),
    ('all_zero_lo25', 'midpoint'): ('17582b181515f24d60c45a96a1b4192e323d207b7131a7aea6dc96a66a3c3f30',
        '90162edb39207e528e1e875d796a086c86a9f8bd0c25d0e1c295a21742382bab'),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
def test_trace_and_json_bytes_are_pinned(method):
    for name, net in _networks():
        result = run(net, method)
        got = (_sha(emit_trace(result)), _sha("".join(_run_json(result, method, with_trace=True))))
        assert got == PINNED[name, method], name
