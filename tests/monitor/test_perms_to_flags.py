"""``perms_to_flags`` serves every R/W/X combination from a table."""

import pytest

from repro.hw.paging import PageTableFlags
from repro.monitor.enclave import perms_to_flags
from repro.monitor.structs import PagePerm


def _enum_expression(perms: PagePerm) -> PageTableFlags:
    flags = PageTableFlags.PRESENT | PageTableFlags.USER
    if perms & PagePerm.W:
        flags |= PageTableFlags.WRITABLE
    if not perms & PagePerm.X:
        flags |= PageTableFlags.NX
    return flags


@pytest.mark.parametrize("bits", range(8))
def test_table_matches_the_enum_expression(bits):
    perms = PagePerm(bits)
    flags = perms_to_flags(perms)
    assert type(flags) is PageTableFlags
    assert flags == _enum_expression(perms)
    assert int(flags) == int(_enum_expression(perms))
    # A plain int with the same bits selects the same entry.
    assert perms_to_flags(bits) is flags
