"""Shared pytest fixtures.

The fixtures keep the tables small so the full suite stays fast; experiments
that need statistical signal use the ``small_adult`` (1 000 rows) fixture,
algorithmic unit tests use ``tiny_adult`` (300 rows) or the hand-written
hospital table from the paper.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests without installing the package (offline environments
# may lack the `wheel` package needed for editable installs).
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.data.adult import generate_adult  # noqa: E402
from repro.data.examples import table_i_patients  # noqa: E402
from repro.knowledge.prior import kernel_prior  # noqa: E402


@pytest.fixture(scope="session")
def small_adult():
    """A 1 000-row synthetic Adult-like table (shared, read-only)."""
    return generate_adult(1_000, seed=11)


@pytest.fixture(scope="session")
def tiny_adult():
    """A 300-row synthetic Adult-like table for fast algorithmic tests."""
    return generate_adult(300, seed=7)


@pytest.fixture(scope="session")
def small_adult_priors(small_adult):
    """Kernel priors (b = 0.3) for the 1 000-row table, shared across tests."""
    return kernel_prior(small_adult, 0.3)


@pytest.fixture()
def patients():
    """The 9-row hospital table of Table I."""
    return table_i_patients()


@pytest.fixture()
def rng():
    """A seeded random generator for per-test randomness."""
    return np.random.default_rng(1234)


@pytest.fixture()
def decoded(monkeypatch):
    """Version numbers of the archives a ``ReleaseStore`` decodes, in call order."""
    from repro.stream.store import ReleaseStore

    calls = []
    load_version = ReleaseStore._load_version

    def counting(self, payload):
        calls.append(int(payload["version"]))
        return load_version(self, payload)

    monkeypatch.setattr(ReleaseStore, "_load_version", counting)
    return calls
