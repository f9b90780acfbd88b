import pytest
from hypothesis import settings

from homalg.forge import catalog

# Every property test draws the same examples on every run: no random seed,
# no example database, no per-example deadline on a loaded machine.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def seed_catalog():
    return {e.id: e for e in catalog()}


@pytest.fixture
def cold_binds(monkeypatch):
    """The plans bound from now on, one per engine check the verdict memo
    did not answer."""
    import homalg.engine as engine

    calls = []
    real = engine._Plan.bind

    def bind(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(engine._Plan, "bind", bind)
    return calls
