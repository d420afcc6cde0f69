import pytest

from schedcheck.errors import (DuplicateTaskId, EmptyWorkload, MalformedRow,
                               OrphanReduce, SpecInvalid)
from schedcheck.trace import (GeneratorSpec, parse, parse_generator_spec,
                              stats, synthesize, write)

HEADER = ("task_id,job_id,kind,submit_ms,duration_ms,deadline_ms,"
          "preferred_node,outcome,failure_cause\n")


def write_trace(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(HEADER + body)
    return path


class TestParse:
    def test_basic_three_row_file(self, tmp_path):
        path = write_trace(tmp_path, "a.csv",
                           "m1,j1,map,0,100,,,SUCCESS,\n"
                           "m2,j1,map,5,100,,,SUCCESS,\n"
                           "r1,j1,reduce,5,200,900,1,FAIL,timeout\n")
        trace = parse(path)
        assert trace.task_count == 3
        assert len(trace.job_index) == 1
        assert trace.failed_count == 1
        r1 = trace.records[-1]
        assert r1.deadline_ms == 900 and r1.preferred_node == 1

    def test_comment_lines_ignored(self, tmp_path):
        path = write_trace(tmp_path, "a.csv",
                           "# month 1\nm1,j1,map,0,100,,,SUCCESS,\n")
        assert parse(path).task_count == 1

    def test_multi_file_merge_sorts_by_submit(self, tmp_path):
        a = write_trace(tmp_path, "a.csv", "m1,j1,map,50,100,,,SUCCESS,\n")
        b = write_trace(tmp_path, "b.csv", "m2,j2,map,10,100,,,SUCCESS,\n")
        trace = parse([a, b])
        assert [r.task_id for r in trace.records] == ["m2", "m1"]
        # order of input files does not matter after sorting
        trace2 = parse([b, a])
        assert [r.task_id for r in trace2.records] == ["m2", "m1"]

    @pytest.mark.parametrize("row", [
        "m1,j1,map,0,0,,,SUCCESS,",          # zero duration
        "m1,j1,map,-5,100,,,SUCCESS,",       # negative submit
        "m1,j1,shuffle,0,100,,,SUCCESS,",    # bad kind
        "m1,j1,map,0,100,,,MAYBE,",          # bad outcome
        "m1,j1,map,0,100",                   # short row
        "m1,j1,map,zero,100,,,SUCCESS,",     # non-integer
        "m1,j1,map,0,100,,-1,SUCCESS,",      # negative preferred node
    ])
    def test_malformed_rows(self, tmp_path, row):
        path = write_trace(tmp_path, "bad.csv", row + "\n")
        with pytest.raises(MalformedRow) as exc:
            parse(path)
        assert exc.value.line_no == 2

    def test_duplicate_task_id(self, tmp_path):
        path = write_trace(tmp_path, "dup.csv",
                           "m1,j1,map,0,100,,,SUCCESS,\n"
                           "m1,j1,map,0,100,,,SUCCESS,\n")
        with pytest.raises(DuplicateTaskId):
            parse(path)

    def test_orphan_reduce(self, tmp_path):
        path = write_trace(tmp_path, "orphan.csv",
                           "r1,j1,reduce,0,100,,,SUCCESS,\n")
        with pytest.raises(OrphanReduce):
            parse(path)

    def test_empty_trace(self, tmp_path):
        path = write_trace(tmp_path, "empty.csv", "")
        with pytest.raises(EmptyWorkload):
            parse(path)

    def test_write_parse_roundtrip(self, tmp_path):
        spec = GeneratorSpec(n_tasks=50)
        trace = synthesize(spec, seed=7)
        out = tmp_path / "round.csv"
        write(trace, out)
        again = parse(out)
        assert again.records == trace.records


class TestStats:
    def test_failure_fraction(self, tmp_path):
        body = "".join(f"m{i},j1,map,0,100,,,SUCCESS,\n" for i in range(94))
        body += "".join(f"f{i},j2,map,0,100,,,FAIL,\n" for i in range(6))
        trace = parse(write_trace(tmp_path, "mix.csv", body))
        st = stats(trace)
        assert st.task_count == 100
        assert st.failure_fraction_pct == pytest.approx(6.0)
        assert st.map_count == 100 and st.reduce_count == 0


class TestGenerator:
    def test_spec_validation(self):
        with pytest.raises(SpecInvalid):
            GeneratorSpec(n_tasks=0)
        with pytest.raises(SpecInvalid):
            GeneratorSpec(failure_fraction=1.5)
        with pytest.raises(SpecInvalid):
            GeneratorSpec(profile="google")

    def test_parse_generator_spec(self):
        spec = parse_generator_spec(
            "n_tasks = 500\nfailure_fraction = 0.0588\nprofile = opencloud\n")
        assert spec.n_tasks == 500
        assert spec.failure_fraction == pytest.approx(0.0588)
        assert spec.profile == "opencloud"
        with pytest.raises(SpecInvalid):
            parse_generator_spec("bogus_key = 1\n")

    @pytest.mark.parametrize("line", ["n_tasks = ten", "timeout_ms = 1.5",
                                      "failure_fraction = some"])
    def test_bad_number_in_spec_names_key_and_value(self, line):
        key, _, value = (f.strip() for f in line.partition("="))
        with pytest.raises(SpecInvalid, match=key) as err:
            parse_generator_spec(line + "\n")
        assert repr(value) in str(err.value)

    @pytest.mark.parametrize("changes", [
        {"n_tasks": 100, "timeout_ms": 1}, {"timeout_ms": 3},
        {"node_count": 0, "locality_fraction": 1.0}, {"node_count": -1}])
    def test_spec_rejects_values_that_synthesize_cannot_draw(self, changes):
        with pytest.raises(SpecInvalid):
            GeneratorSpec(**changes)

    @pytest.mark.parametrize("profile", ["uniform", "opencloud"])
    def test_least_timeout_and_node_count_synthesize(self, profile):
        spec = GeneratorSpec(n_tasks=100, timeout_ms=4, node_count=1,
                             locality_fraction=1.0, failure_fraction=0.5,
                             profile=profile)
        trace = synthesize(spec, seed=3)
        assert trace.task_count == 100
        assert {r.preferred_node for r in trace.records} == {0}

    def test_deterministic_for_fixed_seed(self):
        spec = GeneratorSpec(n_tasks=200)
        assert synthesize(spec, seed=42).records == \
            synthesize(spec, seed=42).records
        assert synthesize(spec, seed=42).records != \
            synthesize(spec, seed=43).records

    def test_failure_fraction_respected(self):
        spec = GeneratorSpec(n_tasks=1000, failure_fraction=0.0588)
        trace = synthesize(spec, seed=42)
        assert stats(trace).failure_fraction_pct == pytest.approx(5.88, abs=0.1)

    def test_zero_failures(self):
        trace = synthesize(GeneratorSpec(n_tasks=100, failure_fraction=0.0),
                           seed=1)
        assert trace.failed_count == 0

    def test_opencloud_profile_failure_mix_labels(self):
        spec = GeneratorSpec(n_tasks=2000, failure_fraction=0.0588,
                             profile="opencloud")
        trace = synthesize(spec, seed=42)
        causes = {}
        for r in trace.records:
            if r.outcome == "FAIL":
                causes[r.failure_cause_label] = \
                    causes.get(r.failure_cause_label, 0) + 1
        total = sum(causes.values())
        assert causes["timeout"] / total == pytest.approx(0.32, abs=0.06)
        assert causes["speculative"] / total == pytest.approx(0.26, abs=0.06)
