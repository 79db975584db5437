"""The benchmark tracer's patch points resolve, and come back on exit.

``bench/tracing.py`` replaces library attributes by name at every point
where a caller looks a layer function up (``apex.cr_certificates``,
``apex.nx``, ``pages.verify_certificate``, ...).  An import that looks
unused in ``src/`` may be one of those points: deleting it makes every
traced benchmark run fail before its first task.  This test enters the
tracer once, with ``bench/`` on ``sys.path`` and nothing in it changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

import conecross  # noqa: F401  (loads every module the tracer patches)

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def library_state():
    """Every attribute of every loaded ``conecross`` module and of the
    classes each defines, keyed by where it lives."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("conecross."):
            continue
        for attr, value in vars(mod).items():
            state[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    state[name, attr, cattr] = cvalue
    return state


def test_every_patch_point_resolves_and_is_restored(tracing):
    before = library_state()
    with tracing.installed(tracing.Tracer()):
        during = library_state()
    after = library_state()

    patched = {key for key, value in during.items() if before.get(key) is not value}
    for key in [
        ("conecross.apex", "cr_certificates"),
        ("conecross.apex", "nx"),
        ("conecross.pages", "verify_certificate"),
        ("conecross.solver", "lr_planar"),
        ("conecross.certificates", "CrossingCertificate", "build"),
        ("conecross.graphs", "Multigraph", "instances"),
    ]:
        assert key in patched
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
