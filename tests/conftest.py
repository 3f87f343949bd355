import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# no example database: every run draws afresh, so a draw that failed once is
# not replayed first by every later run in the checkout (.hypothesis/)
settings.register_profile("no-database", database=None)
settings.load_profile("no-database")


@pytest.fixture
def patch_pair_code(monkeypatch):
    """``patch(name, value)`` sets ``outer_bound.<name>``, a function that the
    ETW pair table is filled through, with the table's memo cleared first and
    again at teardown: no table filled before the patch is read under it, and
    none filled under it outlives the test."""
    from ifcbounds import outer_bound

    def patch(name, value):
        outer_bound._etw_pair_table.cache_clear()
        monkeypatch.setattr(outer_bound, name, value)
    yield patch
    outer_bound._etw_pair_table.cache_clear()
