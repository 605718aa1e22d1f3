"""Golden references: pinned outcomes of short, fixed-seed runs.

Every other determinism test compares two paths of the same code
version; these compare against outcomes committed with the code, so a
change that moves both sides of a parity check still fails here.
"""

import pytest

from golden_cases import CASES, load_references, run_case, summary

REFERENCES = load_references()


def test_every_case_has_a_reference():
    assert sorted(REFERENCES) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden_reference(name):
    assert summary(run_case(name)) == REFERENCES[name]
