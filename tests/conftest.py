import pytest

import pgmatch.autodiff as ad


@pytest.fixture(autouse=True)
def fresh_tape():
    """Every test starts and ends on an empty tape."""
    ad.clear_tape()
    yield
    ad.clear_tape()
