"""The registry of paper claims (``repro.claims``) in the tier-1 suite.

One test per claim part (``<claim id>/<part name>``): it regenerates
that share of the claim's artifact and fails with the part's own
message when the artifact differs from the paper.  Two drift checks
keep the registry and DESIGN.md §4 naming the same claims.
"""

import pathlib
import re

import pytest

from repro.claims import CLAIMS

_DESIGN = pathlib.Path(__file__).resolve().parents[1] / "DESIGN.md"


_PARTS = [(claim, part) for claim in CLAIMS for part in claim.parts]


@pytest.mark.parametrize(
    "part", [part for _claim, part in _PARTS],
    ids=[f"{claim.id}/{part.name}" for claim, part in _PARTS])
def test_claim_part_holds(part):
    assert part.check()  # raises ClaimFailed on a mismatch


def test_claim_and_part_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))
    for claim in CLAIMS:
        names = [part.name for part in claim.parts]
        assert names, claim.id
        assert len(names) == len(set(names)), claim.id


def _experiment_index_claims():
    """The claim column of both tables of DESIGN.md §4, in order."""
    text = _DESIGN.read_text(encoding="utf-8")
    section = text.split("\n## 4.", 1)[1].split("\n## 5.", 1)[0]
    claims = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 2 or not line.startswith("|"):
            continue
        match = re.fullmatch(r"`([a-z0-9-]+)`", cells[-1])
        if match:
            claims.append(match.group(1))
    return claims


def test_experiment_index_names_every_claim():
    assert _experiment_index_claims() == [claim.id for claim in CLAIMS]
