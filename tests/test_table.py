import random

import pytest

from schedcheck.model import new_table, table_get, table_records, table_set

SIZES = (1, 31, 32, 33, 1023, 1024, 1025, 10_000)


class TestLayout:
    @pytest.mark.parametrize("n", SIZES)
    def test_root_has_one_entry_per_1024_positions(self, n):
        table = new_table(n, None)
        assert len(table) == -(-n // 1024)
        assert all(len(mid) == 32 and all(len(leaf) == 32 for leaf in mid)
                   for mid in table)

    @pytest.mark.parametrize("n", SIZES)
    def test_new_table_holds_the_default(self, n):
        table = new_table(n, "d")
        assert table_records(table, n) == ["d"] * n
        assert table_get(table, n - 1) == "d"


class TestAgainstDictModel:
    @pytest.mark.parametrize("n", SIZES)
    def test_random_get_set_match_dict(self, n):
        rng = random.Random(n)
        table = new_table(n, -1)
        model = {}
        for step in range(3000):
            i = rng.randrange(n)
            if rng.random() < 0.6:
                table = table_set(table, i, step)
                model[i] = step
            else:
                assert table_get(table, i) == model.get(i, -1)
        for i in (0, n - 1, n // 2):
            table = table_set(table, i, ("edge", i))
            model[i] = ("edge", i)
        assert table_records(table, n) == [model.get(i, -1) for i in range(n)]

    @pytest.mark.parametrize("n", SIZES)
    def test_set_leaves_the_old_table_unchanged(self, n):
        rng = random.Random(7)
        table = new_table(n, 0)
        model = [0] * n
        snapshots = []
        for step in range(1, 400):
            i = rng.randrange(n)
            if step % 50 == 0:
                snapshots.append((table, list(model)))
            table = table_set(table, i, step)
            model[i] = step
        for snap, snap_model in snapshots:
            assert table_records(snap, n) == snap_model
            assert all(table_get(snap, i) == v
                       for i, v in enumerate(snap_model))

    def test_a_write_copies_only_its_path(self):
        table = new_table(3000, 0)
        new = table_set(table, 1500, 1)
        assert new[0] is table[0] and new[2] is table[2]
        assert new[1][0] is table[1][0]
        assert new[1] is not table[1]
