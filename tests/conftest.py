"""Fixtures and the hypothesis profile shared by the test modules."""

import pytest
from hypothesis import settings

# every property test replays the same examples and has no time limit; a test
# sets only its own max_examples
settings.register_profile("specbary", derandomize=True, deadline=None)
settings.load_profile("specbary")


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
