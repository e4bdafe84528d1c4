"""Shared fixtures."""

import pytest

from fpcount import CounterTable


def _with_slot(table: CounterTable, index: int, value: int) -> CounterTable:
    """A copy of `table` whose slot `index` holds `value`.

    Packs by the documented snapshot layout, treating the whole payload
    as one little-endian integer with slot i at bits [i*width,
    (i+1)*width): a reference independent of the table's own slot code.
    The header's saturation count (bytes 16 to 24) follows the slot.
    """
    blob = table.to_bytes()
    size = table.payload_bytes
    payload = int.from_bytes(blob[-size:], "little")
    shift = index * table.width
    top = (1 << table.width) - 1
    count = table.saturation_count - ((payload >> shift) & top == top) + (value == top)
    payload &= ~(top << shift)
    payload |= value << shift
    header = blob[:16] + count.to_bytes(8, "little")
    return CounterTable.from_bytes(header + payload.to_bytes(size, "little"))


@pytest.fixture(scope="session")
def with_slot():
    return _with_slot
