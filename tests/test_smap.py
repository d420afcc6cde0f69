import random

from schedcheck.smap import EMPTY_SMAP


class TestBasics:
    def test_empty(self):
        assert list(EMPTY_SMAP.items()) == []
        assert EMPTY_SMAP.get("x") is None
        assert EMPTY_SMAP.get("x", 5) == 5

    def test_set_get(self):
        m = EMPTY_SMAP.set("a", 1).set("b", 2)
        assert m.get("a") == 1 and m.get("b") == 2
        m2 = m.set("a", 3)
        assert m2.get("a") == 3 and m2.get("b") == 2
        assert m.get("a") == 1  # original untouched

    def test_overwrite(self):
        m = EMPTY_SMAP.set("a", 1).set("a", 9)
        assert m.get("a") == 9 and list(m.items()) == [("a", 9)]


class TestAgainstDictModel:
    def test_random_ops_match_dict(self):
        rng = random.Random(1234)
        m = EMPTY_SMAP
        model = {}
        history = []  # snapshots to confirm persistence
        for step in range(3000):
            key = rng.randrange(200)
            op = rng.random()
            if op < 0.6:
                m = m.set(key, step)
                model[key] = step
            else:
                assert m.get(key) == model.get(key)
            if step % 500 == 0:
                history.append((m, dict(model)))
        assert sorted(m.items()) == sorted(model.items())
        for snap, snap_model in history:
            assert sorted(snap.items()) == sorted(snap_model.items())

    def test_heterogeneous_keys(self):
        m = EMPTY_SMAP.set(("j", 1), "a").set(42, "b").set("x", "c")
        assert m.get(("j", 1)) == "a"
        assert m.get(42) == "b"
        assert len(list(m.items())) == 3
