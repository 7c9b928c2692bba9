import pytest


@pytest.fixture
def calls(monkeypatch):
    """calls(owner, name, record) patches owner.name for the test and returns
    a list that gets record(*args, **kwargs) for each call (None by default)."""

    def patch(owner, name, record=lambda *args, **kwargs: None):
        seen, original = [], getattr(owner, name)

        def counted(*args, **kwargs):
            seen.append(record(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return seen

    return patch
