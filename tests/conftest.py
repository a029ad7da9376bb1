import pytest


@pytest.fixture
def counted():
    """counted(fn) -> (wrapped, calls): wrapped(t) returns fn(t) and
    appends the size of the array t to calls."""
    def wrap(fn):
        calls = []

        def wrapped(t):
            calls.append(t.size)
            return fn(t)

        return wrapped, calls

    return wrap
