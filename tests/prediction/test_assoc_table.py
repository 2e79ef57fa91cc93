"""Unit tests for the set-associative prediction table."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SnapshotError
from repro.prediction.assoc_table import AssociativeTable, KeyShape


def value(table, key):
    """The payload stored under ``key`` (refreshing LRU), or ``None``."""
    slot = table.lookup(key)
    return None if slot is None else table.columns[0][slot]


class TestGeometry:
    def test_paper_default_32_entry_4_way(self):
        table = AssociativeTable()
        assert table.entries == 32
        assert table.assoc == 4
        assert table.num_sets == 8

    @pytest.mark.parametrize("entries,assoc", [(0, 4), (32, 0), (30, 4)])
    def test_invalid_geometry(self, entries, assoc):
        with pytest.raises(ConfigurationError):
            AssociativeTable(entries=entries, assoc=assoc)


class TestLookupInsert:
    def test_miss_returns_none(self):
        assert AssociativeTable().lookup("missing") is None
        assert value(AssociativeTable(), "missing") is None

    def test_insert_then_lookup(self):
        table = AssociativeTable()
        table.insert("key", 42)
        assert value(table, "key") == 42

    def test_insert_overwrites(self):
        table = AssociativeTable()
        table.insert("key", 1)
        table.insert("key", 2)
        assert value(table, "key") == 2
        assert len(table) == 1

    def test_peek_does_not_touch_lru(self):
        table = AssociativeTable(entries=2, assoc=2)
        table.insert("a", 1)
        table.insert("b", 2)
        table.peek("a")           # must NOT refresh a
        table.lookup("b")         # b is MRU
        table.insert("c", 3)      # evicts a (LRU despite the peek)
        assert table.lookup("a") is None
        assert value(table, "b") == 2

    def test_remove(self):
        table = AssociativeTable()
        table.insert("key", 1)
        assert table.remove("key") is True
        assert table.remove("key") is False
        assert table.lookup("key") is None

    def test_items_lists_all(self):
        table = AssociativeTable()
        table.insert("a", 1)
        table.insert("b", 2)
        assert dict(table.items()) == {"a": (1,), "b": (2,)}

    def test_tuple_keys(self):
        table = AssociativeTable()
        key = ("rle", 2, ((1, 5), (2, 3)))
        table.insert(key, 7)
        assert value(table, key) == 7


class TestEviction:
    def test_lru_evicted_within_set(self):
        table = AssociativeTable(entries=2, assoc=2)  # one set
        table.insert("a", 1)
        table.insert("b", 2)
        table.lookup("a")          # refresh a
        table.insert("c", 3)       # evicts b
        assert table.lookup("b") is None
        assert value(table, "a") == 1
        assert table.evictions == 1

    def test_capacity_respected(self):
        table = AssociativeTable(entries=8, assoc=2)
        for i in range(100):
            table.insert(("k", i), i)
        assert len(table) <= 8

    def test_insertion_counter(self):
        table = AssociativeTable()
        table.insert("a", 1)
        table.insert("b", 2)
        table.insert("a", 3)  # overwrite: not a new insertion
        assert table.insertions == 2


class TestSetIndexDeterminism:
    def test_set_index_is_process_independent(self):
        """Built-in ``hash()`` of strings is salted per interpreter;
        the table must not depend on it, or a crash-recovered process
        places restored ways in different sets than the original."""
        import os
        import subprocess
        import sys

        program = (
            "from repro.prediction.assoc_table import _set_index\n"
            "keys = [('rle', 2, ((1, 5), (2, 3))), ('markov', 0, (7,)),"
            " (1, 2, 3), 'plain-string']\n"
            "print([_set_index(k, 8) for k in keys])\n"
        )
        outputs = set()
        for seed in ("0", "1", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONHASHSEED=seed,
                         PYTHONPATH="src"),
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__)
                ))),
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1


def _old_set_index(nested_key, num_sets):
    """The set index the object layout computed from a nested key."""
    import zlib

    return (zlib.crc32(repr(nested_key).encode("utf-8")) ^ 0x9E3779B9) % (
        num_sets
    )


@st.composite
def shaped_keys(draw):
    """A key shape (RLE, length or Markov, depth 1-3) and a flat key."""
    tag, width = draw(st.sampled_from(
        [("rle", 2), ("rle-len", 2), ("markov", 1)]
    ))
    depth = draw(st.integers(1, 3))
    key = tuple(draw(st.lists(
        st.integers(0, 2**40), min_size=depth * width,
        max_size=depth * width,
    )))
    return KeyShape(tag, depth, width), key


class TestKeyShape:
    @given(shaped=shaped_keys(), num_sets=st.sampled_from([1, 2, 8, 32]))
    def test_set_index_is_the_nested_key_formula(self, shaped, num_sets):
        shape, key = shaped
        assert shape.describe(key) == repr(shape.nest(key))
        table = AssociativeTable(
            entries=4 * num_sets, assoc=4, describe=shape.describe
        )
        assert table._set(key) == _old_set_index(shape.nest(key), num_sets)

    def test_markov1_key_nests_as_a_one_tuple(self):
        shape = KeyShape("markov", 1, 1)
        assert shape.nest((3,)) == ("markov", 1, (3,))
        assert shape.describe((3,)) == "('markov', 1, (3,))"
        assert KeyShape("rle", 1, 2).describe((3, 4)) == (
            "('rle', 1, ((3, 4),))"
        )

    @given(shaped=shaped_keys())
    def test_flatten_inverts_nest_through_json(self, shaped):
        shape, key = shaped
        assert shape.flatten(json.loads(json.dumps(shape.nest(key)))) == key

    @pytest.mark.parametrize("raw", [
        None, 3, "rle", ["rle", 2], ["markov", 2, [[1, 2], [3, 4]]],
        ["rle", 1, [[1, 2]]], ["rle", 2, [[1, 2]]], ["rle", 2, [1, 2]],
        ["rle", 2, [[1, 2], [3]]], ["rle", 2, [[1, 2], [3, "4"]]],
        ["rle", 2, [[1, 2], [3, True]]], ["rle", 2, [[1, 2], [3, 4.0]]],
        ["rle", True, [[1, 2]]],
    ])
    def test_flatten_refuses_other_shapes(self, raw):
        with pytest.raises(SnapshotError):
            KeyShape("rle", 2, 2).flatten(raw)


class TestWayOrder:
    def test_removal_closes_up_the_set(self):
        table = AssociativeTable(entries=4, assoc=4)
        for key in "abcd":
            table.insert(key, key.upper())
        table.remove("b")
        assert table.items() == [("a", ("A",)), ("c", ("C",)), ("d", ("D",))]
        table.insert("e", "E")
        assert [key for key, _ in table.items()] == ["a", "c", "d", "e"]

    def test_eviction_takes_the_earliest_of_equal_stamps(self):
        table = AssociativeTable(entries=3, assoc=3)
        for key in "abc":
            table.insert(key, 0)
        table.stamps[0] = table.stamps[1] = table.stamps[2] = 1
        table.insert("d", 0)
        assert [key for key, _ in table.items()] == ["b", "c", "d"]

    def test_other_sets_keep_their_slots(self):
        table = AssociativeTable(entries=8, assoc=2, describe=lambda k: k[0])
        keys = ["x1", "y1", "x2", "y2"]
        for key in keys:
            table.insert(key, key)
        before = {key: table.peek(key) for key in keys}
        table.remove("x1")
        other = [key for key in keys if table._set(key) != table._set("x1")]
        assert other
        assert {key: table.peek(key) for key in other} == {
            key: before[key] for key in other
        }

    def test_export_is_set_major(self):
        table = AssociativeTable(entries=8, assoc=2)
        for key in range(8):
            table.insert(key, key)
        ways = table.export_state(lambda key: key, lambda value: value)[
            "ways"
        ]
        sets = [table._set(key) for key, _, _ in ways]
        assert sets == sorted(sets)
