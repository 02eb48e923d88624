"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def eigsh_calls(monkeypatch):
    """The k of every call to scipy's eigsh, which only the Lanczos path makes."""
    from scipy.sparse import linalg as splinalg

    calls = []
    real = splinalg.eigsh

    def spy(*args, **kwargs):
        calls.append(kwargs["k"])
        return real(*args, **kwargs)

    monkeypatch.setattr(splinalg, "eigsh", spy)
    return calls
