import pytest

from exkit import conditional


@pytest.fixture(autouse=True)
def cold_universal_rhs_memo():
    """Start every test with no conditional right-hand side kept, so a test
    that counts the work of building one does not depend on which shapes an
    earlier test left in the process-wide memo."""
    conditional.universal_rhs.cache_clear()
    conditional._scaled_rhs.cache_clear()
