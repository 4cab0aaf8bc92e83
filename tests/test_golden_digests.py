"""Committed golden digests: reference results pinned across commits.

``tests/test_golden_determinism.py`` compares knob settings against each
other within one checkout; these tests compare against values committed
in ``tests/golden/DIGESTS.json``, so a change that shifts every result
the same way still fails.  Re-record with ``python -m
tests.golden.digests --update --reason TEXT`` (see that module).
"""

from __future__ import annotations

import pytest

from tests.golden import digests as golden


@pytest.mark.parametrize("run_name", list(golden.RUNS))
def test_payload_matches_committed_digest(run_name):
    expected = golden.load()["digests"][golden.golden_key(run_name)]
    assert golden.compute(run_name) == expected


def test_every_reference_run_is_committed():
    committed = set(golden.load()["digests"])
    assert committed == {golden.golden_key(n) for n in golden.RUNS}


class TestUpdateReason:
    CHANGES = "Faster event loop.\nMoved p99 because of X.\n"

    def test_missing_reason_refused(self):
        with pytest.raises(SystemExit, match="pass --reason"):
            golden.check_reason(None, self.CHANGES, [])

    def test_reason_must_be_in_changes(self):
        with pytest.raises(SystemExit, match="no CHANGES.md line"):
            golden.check_reason("moved p50", self.CHANGES, [])

    def test_recorded_reason_refused(self):
        with pytest.raises(SystemExit, match="already a recorded reason"):
            golden.check_reason("because of X", self.CHANGES,
                                ["because of X"])

    def test_new_reason_accepted(self):
        assert golden.check_reason(" because of X ", self.CHANGES,
                                   []) == "because of X"
