"""The output-parity hashes of ``tests/parity.py`` against their committed values.

A change that moves one of them changed a result, a report, the CLI
output contract or the batch commands' files; a deliberate change
updates the value here and says why.
"""

from __future__ import annotations

import pytest

import parity

COMMITTED = {
    "all_congruences": "8e7ff52d4f937fb66504f24c859c9f8eac47b28cea1eda445ba478ffd04849f9",
    "reports": "4e23677accc36a5419ecc5e6130a5eeb292107e5adeb3bbdb64b5b1c135f2530",
    "cli": "537e5c0c9974602fe627a94f8c83cb62c2cc506ed5e0c26b5b2f246c159e6eee",
    "batch": "57582885dd464d200cce29bdf674c55a86948fccbc9a747473e25a0e7b422520",
}


@pytest.mark.slow
def test_output_parity_hashes_match_committed_values():
    assert parity.digests() == COMMITTED
