"""Shared fixtures, and the hypothesis profile of the mutation gate."""

import pytest
from hypothesis import Phase, settings

from conecross.experiments import fs_small

# The mutation gate (tests/mutants.py) only needs each named test to fail,
# so its runs skip shrinking the failing example: under a mutant that is
# most of a metamorphic check's cost.  Tier-1 keeps hypothesis's defaults.
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])


@pytest.fixture(scope="session")
def fs_rows():
    """The f_s(k) table, computed once: each build runs every solve."""
    return fs_small()
