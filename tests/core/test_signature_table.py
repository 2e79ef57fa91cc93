"""Unit tests for the past-signature table."""

import pytest

import numpy as np

from repro.core.signature import Signature
from repro.core.signature_table import SignatureTable
from repro.errors import ConfigurationError


def sig(*values, bits=6):
    return Signature(list(values), bits=bits)


def one_row_table():
    table = SignatureTable(capacity=4, default_threshold=0.25)
    return table, table.insert(sig(1))


class TestTableEntry:
    """A table entry is a row: its CPI statistics sit in columns."""

    def test_cpi_running_average(self):
        table, row = one_row_table()
        table.record_cpi(row, 1.0)
        table.record_cpi(row, 3.0)
        assert table.cpi_means[row] == pytest.approx(2.0)
        assert table.cpi_counts[row] == 2

    def test_cpi_deviation(self):
        table, row = one_row_table()
        table.record_cpi(row, 2.0)
        assert table.cpi_deviation(row, 3.0) == pytest.approx(0.5)
        assert table.cpi_deviation(row, 2.0) == 0.0

    def test_deviation_without_history_is_zero(self):
        table, row = one_row_table()
        assert table.cpi_deviation(row, 100.0) == 0.0

    def test_clear_cpi_stats(self):
        table, row = one_row_table()
        table.record_cpi(row, 5.0)
        table.clear_cpi_stats(row)
        assert table.cpi_counts[row] == 0
        assert table.cpi_means[row] == 0.0


class TestSearch:
    def test_empty_table_no_match(self):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        assert table.best_match(sig(1, 2, 3)) is None

    def test_exact_match_found(self):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        table.insert(sig(10, 10, 10))
        match = table.best_match(sig(10, 10, 10))
        assert match is not None
        assert match[1] == 0.0

    def test_match_within_threshold(self):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        table.insert(sig(10, 10, 0))
        # distance 4, totals 20+20 -> 10% difference: within 25%.
        assert table.best_match(sig(10, 6, 0)) is not None

    def test_no_match_beyond_threshold(self):
        table = SignatureTable(capacity=4, default_threshold=0.125)
        table.insert(sig(10, 10, 0))
        # distance 20, totals 20+20 -> 50% difference.
        assert table.best_match(sig(0, 10, 10)) is None

    def test_most_similar_policy_picks_closest(self):
        table = SignatureTable(capacity=4, default_threshold=0.5)
        table.insert(sig(10, 4, 0))
        near = table.insert(sig(10, 9, 0))
        match = table.best_match(sig(10, 10, 0), policy="most_similar")
        assert match is not None and match[0] == near

    def test_first_policy_picks_table_order(self):
        table = SignatureTable(capacity=4, default_threshold=0.5)
        first = table.insert(sig(10, 4, 0))
        table.insert(sig(10, 9, 0))
        match = table.best_match(sig(10, 10, 0), policy="first")
        assert match is not None and match[0] == first

    def test_unknown_policy_rejected(self):
        table = SignatureTable(capacity=4, default_threshold=0.5)
        table.insert(sig(1))
        with pytest.raises(ConfigurationError):
            table.best_match(sig(1), policy="best")

    def test_per_entry_threshold_respected(self):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        row = table.insert(sig(10, 10, 0))
        table.thresholds[row] = 0.05
        # 10% difference: within the default but not the tightened one.
        assert table.best_match(sig(10, 6, 0)) is None


class TestMutation:
    def test_touch_replaces_signature(self):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        row = table.insert(sig(10, 10, 0))
        table.touch(row, sig(10, 9, 0))
        assert table.rows[row].tolist() == [10, 9, 0]
        # Future searches compare against the replaced signature.
        match = table.best_match(sig(10, 9, 0))
        assert match is not None and match[1] == 0.0

    def test_lru_eviction_at_capacity(self):
        table = SignatureTable(capacity=2, default_threshold=0.25)
        a = table.insert(sig(63, 0, 0))
        table.insert(sig(0, 63, 0))
        table.touch(a, sig(63, 0, 0))     # refresh a; b becomes LRU
        table.insert(sig(0, 0, 63))       # evicts b
        assert len(table) == 2
        assert table.evictions == 1
        assert table.rows[:2].tolist() == [[63, 0, 0], [0, 0, 63]]

    def test_infinite_capacity(self):
        table = SignatureTable(capacity=None, default_threshold=0.25)
        for i in range(100):
            table.insert(sig(i % 64, (i * 7) % 64))
        assert len(table) == 100
        assert table.evictions == 0

    def test_flush_cpi_stats(self):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        row = table.insert(sig(1))
        table.record_cpi(row, 2.0)
        table.flush_cpi_stats()
        assert table.cpi_counts[row] == 0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            SignatureTable(capacity=0, default_threshold=0.25)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            SignatureTable(capacity=4, default_threshold=0.0)
        with pytest.raises(ConfigurationError):
            SignatureTable(capacity=4, default_threshold=1.5)

    def test_insert_uses_default_threshold(self):
        table = SignatureTable(capacity=4, default_threshold=0.125)
        row = table.insert(sig(1))
        assert table.thresholds[row] == 0.125


def scalars(document):
    """Every leaf of a JSON-like document."""
    if isinstance(document, dict):
        for value in document.values():
            yield from scalars(value)
    elif isinstance(document, (list, tuple)):
        for value in document:
            yield from scalars(value)
    else:
        yield document


class TestRowLayout:
    @pytest.mark.parametrize("bits,dtype", [
        (1, np.uint8), (6, np.uint8), (8, np.uint8), (9, np.uint16),
        (16, np.uint16), (17, np.uint32), (24, np.uint32),
    ])
    def test_rows_take_the_narrowest_unsigned_dtype(self, bits, dtype):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        table.insert(sig(1, (1 << bits) - 1, bits=bits))
        assert table.rows.dtype == dtype
        assert table.rows.shape == (4, 2)

    def test_insert_writes_the_row_after_the_last(self):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        assert [table.insert(sig(i, 0)) for i in range(3)] == [0, 1, 2]
        assert table.rows[:3].tolist() == [[0, 0], [1, 0], [2, 0]]

    def test_touch_rewrites_its_row_in_place(self):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        for i in range(3):
            table.insert(sig(i, 0))
        table.touch(1, sig(7, 7))
        assert table.rows[:3].tolist() == [[0, 0], [7, 7], [2, 0]]
        assert table.totals[:3].tolist() == [0, 14, 2]
        assert table.last_used == [1, 4, 3]

    def test_eviction_moves_later_rows_up(self):
        table = SignatureTable(capacity=3, default_threshold=0.25)
        for i in range(3):
            table.insert(sig(i, 0))
        table.thresholds[2] = 0.125
        table.touch(0, sig(0, 0))         # row 1 becomes LRU
        assert table.insert(sig(9, 0)) == 2
        assert table.rows.tolist() == [[0, 0], [2, 0], [9, 0]]
        assert table.thresholds.tolist() == [0.25, 0.125, 0.25]
        assert table.last_used == [4, 3, 5]

    def test_unbounded_table_doubles_its_rows(self):
        table = SignatureTable(capacity=None, default_threshold=0.25)
        for i in range(17):
            table.insert(sig(i, 1))
        assert len(table) == 17
        assert len(table.rows) == 32
        assert table.rows[:17, 0].tolist() == list(range(17))
        assert table.totals[:17].tolist() == [i + 1 for i in range(17)]

    def test_distances_subtract_in_a_signed_type(self):
        """A narrow row minus a larger probe must not wrap."""
        table = SignatureTable(capacity=4, default_threshold=1.0)
        table.insert(sig(0, 1))
        row, distance = table.best_match(sig(5, 1))
        assert (row, distance) == (0, 5 / 7)

    def test_export_holds_only_python_scalars(self):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        for i in range(3):
            table.insert(sig(i, 63))
        table.phase_ids[1] = 4
        table.record_cpi(1, 1.5)
        table.thresholds[1] /= 2.0
        leaves = list(scalars(table.export_state()))
        assert {type(leaf) for leaf in leaves} <= {int, float, type(None)}

    def test_restore_refuses_values_out_of_range(self):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        table.insert(sig(1, 2))
        state = table.export_state()
        state["entries"][0]["values"][0] = 64
        with pytest.raises(ConfigurationError, match="out of range"):
            SignatureTable(capacity=4, default_threshold=0.25).restore_state(
                state
            )

    def test_signatures_of_another_width_are_refused(self):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        table.insert(sig(1, 2))
        with pytest.raises(ConfigurationError):
            table.insert(sig(1, 2, bits=8))
        with pytest.raises(ConfigurationError):
            table.touch(0, sig(1, 2, bits=8))
        assert len(table) == 1

    def test_restore_refuses_values_past_int64(self):
        table = SignatureTable(capacity=4, default_threshold=0.25)
        table.insert(sig(1, 2))
        state = table.export_state()
        state["entries"][0]["values"][0] = 2**70
        with pytest.raises(ConfigurationError, match="out of range"):
            SignatureTable(capacity=4, default_threshold=0.25).restore_state(
                state
            )
