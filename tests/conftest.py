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
