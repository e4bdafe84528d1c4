"""Shared fixtures."""

import pytest

from fpcount import CounterTable


def _with_slot(table: CounterTable, index: int, value: int) -> CounterTable:
    """A copy of `table` whose slot `index` holds `value`.

    Packs by the documented snapshot layout, treating the whole payload
    as one little-endian integer with slot i at bits [i*width,
    (i+1)*width): a reference independent of the table's own slot code.
    """
    blob = table.to_bytes()
    size = table.payload_bytes
    payload = int.from_bytes(blob[-size:], "little")
    shift = index * table.width
    payload &= ~(((1 << table.width) - 1) << shift)
    payload |= value << shift
    return CounterTable.from_bytes(blob[:-size] + payload.to_bytes(size, "little"))


@pytest.fixture(scope="session")
def with_slot():
    return _with_slot
