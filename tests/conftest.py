"""Shared fixtures."""

import pytest

from conecross.experiments import fs_small


@pytest.fixture(scope="session")
def fs_rows():
    """The f_s(k) table, computed once: each build runs every solve."""
    return fs_small()
