"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from spinengine import ising


@pytest.fixture
def newton_calls(monkeypatch):
    """The (rows, step) of every step that ``ising._newton`` takes while
    the test runs; each call also checks that the elements off ``live``
    come back at their bracket top."""
    newton, calls = ising._newton, []

    def watched(step, hi, live):
        def recorded(rows, h):
            out = step(rows, h)
            calls.append((rows, out))
            return out
        got = newton(recorded, hi, live)
        assert np.array_equal(got[~live], hi[~live])
        return got

    monkeypatch.setattr(ising, "_newton", watched)
    return calls
