"""Suite-wide fixtures."""

import pytest


@pytest.fixture(autouse=True)
def _private_run_ledger(monkeypatch, tmp_path):
    """Every ledger-writing CLI verb appends under the test's tmp dir.

    Without this, a verb run without ``--ledger``/``--no-ledger`` appends
    to ``./.repro/ledger`` in the working tree.
    """
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))
