import codecs
import random
from dataclasses import fields

import pytest

from schedcheck.errors import (DuplicateTaskId, EmptyWorkload, MalformedRow,
                               OrphanReduce, SpecInvalid)
from schedcheck.trace import (MAP, REDUCE, GeneratorSpec, TaskRecord,
                              from_rows, parse, parse_generator_spec, stats,
                              synthesize, write)

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

    def test_malformed_row_names_its_file(self, tmp_path):
        ok = write_trace(tmp_path, "ok.csv", "m1,j1,map,0,100,,,SUCCESS,\n")
        bad = write_trace(tmp_path, "bad.csv", "m2,j2,map,0,100,x,,SUCCESS,\n")
        with pytest.raises(MalformedRow) as exc:
            parse([ok, bad])
        assert (exc.value.path, exc.value.line_no) == (bad, 2)
        assert exc.value.reason == \
            "deadline_ms and preferred_node must be integers"
        assert str(exc.value) == f"{bad}: line 2: {exc.value.reason}"

    def test_rows_are_named_by_file_line(self, tmp_path):
        # row 2's quoted failure_cause spans lines 2 and 3, so the bad row
        # after it is the trace's third row but sits on line 4
        path = write_trace(tmp_path, "multi.csv",
                           'm1,j1,map,0,100,,,FAIL,"two\nlines"\n'
                           "m2,j1,map,0,zero,,,SUCCESS,\n")
        with pytest.raises(MalformedRow) as exc:
            parse(path)
        assert (exc.value.path, exc.value.line_no) == (path, 4)

    def test_over_long_field_is_a_malformed_row(self, tmp_path):
        # csv refuses a field over csv.field_size_limit() (131,072 chars)
        path = write_trace(tmp_path, "long.csv",
                           f"m1,j1,map,0,100,,,FAIL,{'x' * 200_000}\n")
        with pytest.raises(MalformedRow) as exc:
            parse(path)
        assert (exc.value.path, exc.value.line_no) == (path, 2)
        assert "field larger than field limit" in exc.value.reason

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

    def test_orphan_is_named_by_its_first_reduce_in_file_order(self,
                                                               tmp_path):
        # in submit order j2's r2 comes first; in file order, j1's r1
        path = write_trace(tmp_path, "orphans.csv",
                           "m1,j0,map,0,100,,,SUCCESS,\n"
                           "r1,j1,reduce,50,100,,,SUCCESS,\n"
                           "r2,j2,reduce,0,100,,,SUCCESS,\n"
                           "r3,j1,reduce,0,100,,,SUCCESS,\n")
        with pytest.raises(OrphanReduce,
                           match="^reduce r1: job j1 has no map task$"):
            parse(path)

    def test_one_task_and_no_task(self, tmp_path):
        one = parse(write_trace(tmp_path, "one.csv",
                                "m1,j1,map,7,100,,,SUCCESS,\n"))
        assert one.columns() == (("m1",), ("j1",), (MAP,), (7,), (100,),
                                 (None,), (None,), ("SUCCESS",), (None,))
        assert (one.job_of, one.job_index) == ((0,), {"j1": (0,)})
        none = from_rows([])
        assert none.columns() == ((),) * len(TaskRecord._fields)
        assert (none.task_count, none.job_index) == (0, {})

    def test_empty_trace(self, tmp_path):
        path = write_trace(tmp_path, "empty.csv", "")
        with pytest.raises(EmptyWorkload):
            parse(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        body = "m1,j1,map,0,100,,,SUCCESS,\nr1,j1,reduce,5,200,,,FAIL,x\n"
        plain = write_trace(tmp_path, "plain.csv", body)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert parse(bom) == parse(plain)
        assert parse(bom).task_id == ("m1", "r1")

    def test_write_parse_roundtrip(self, tmp_path):
        spec = GeneratorSpec(n_tasks=50)
        trace = synthesize(spec, seed=7)
        out = tmp_path / "round.csv"
        write(trace, out)
        again = parse(out)
        assert again.records == trace.records


# Spellings the parser must read as the same field.
_HEADER_ROWS = (HEADER.strip(), HEADER.strip().upper(),
                ",".join(f" {f}\t" for f in HEADER.strip().split(",")))
_COMMENTS = ("# month 2", "  #a,b", "#m9,j9,map,0,100,,,SUCCESS,", "")
_CAUSES = (None, "timeout", "two\nlines", "a, b", 'said "no"')


def _random_records(rng, n, prefix, jobs, has_map):
    """n records of the jobs `jobs`; a job's first task is a map, so no
    reduce is an orphan. Submit times repeat, within and across files."""
    records = []
    for i in range(n):
        job = rng.choice(jobs)
        kind = rng.choice((MAP, REDUCE)) if job in has_map else MAP
        has_map.add(job)
        fail = rng.random() < 0.3
        records.append(TaskRecord(
            f"{prefix}{i}", job, kind, 10 * rng.randrange(5),
            rng.randint(1, 1000), rng.choice((None, rng.randint(0, 5000))),
            rng.choice((None, None, rng.randrange(4))),
            "FAIL" if fail else "SUCCESS",
            rng.choice(_CAUSES) if fail else None))
    return records


def _render(rng, r):
    """One CSV row of `r`, its fields padded with blanks and cased at
    random; the cause is quoted (a quoted field may span lines)."""
    def pad(text):
        return rng.choice(("", " ", "\t")) + text + rng.choice(("", " "))

    def opt(value):
        return "" if value is None else str(value)

    cause = ("" if r.failure_cause_label is None else
             '"' + r.failure_cause_label.replace('"', '""') + '"')
    return ",".join([pad(r.task_id), pad(r.job_id),
                     pad(rng.choice((r.kind, r.kind.upper(),
                                     r.kind.capitalize()))),
                     pad(str(r.submit_ms)), pad(str(r.duration_ms)),
                     pad(opt(r.deadline_ms)), pad(opt(r.preferred_node)),
                     pad(rng.choice((r.outcome, r.outcome.lower()))),
                     cause])


def _write_random_file(rng, path, records, bad_row=None):
    """Write `records` as a trace file with a random line end, comments,
    blank lines and repeated header rows, and maybe a byte-order mark.
    With `bad_row`, put it after a random record; return its line."""
    end = rng.choice(("\n", "\r\n"))
    lines = [rng.choice(_HEADER_ROWS)]
    bad_at = rng.randrange(len(records) + 1)
    for i, r in enumerate(records):
        if i == bad_at and bad_row is not None:
            lines.append(bad_row)
            bad_line = sum(s.count("\n") + 1 for s in lines)
        while rng.random() < 0.2:
            lines.append(rng.choice(_COMMENTS + _HEADER_ROWS))
        lines.append(_render(rng, r))
    if bad_at == len(records) and bad_row is not None:
        lines.append(bad_row)
        bad_line = sum(s.count("\n") + 1 for s in lines)
    text = end.join(lines) + end
    encoding = "utf-8-sig" if rng.random() < 0.3 else "utf-8"
    with open(path, "w", encoding=encoding, newline="") as fh:
        fh.write(text)
    return bad_line if bad_row is not None else None


class TestColumnParse:
    """The column parse against from_rows over the same TaskRecords."""

    def test_parse_equals_from_rows_on_random_files(self, tmp_path):
        rng = random.Random(24)
        for draw in range(150):
            has_map = set()
            jobs = [f"j{k}" for k in range(rng.randint(1, 4))]
            a = _random_records(rng, rng.randint(1, 12), "a", jobs, has_map)
            b = _random_records(rng, rng.randint(0, 12), "b", jobs, has_map)
            paths = [tmp_path / f"{draw}a.csv", tmp_path / f"{draw}b.csv"]
            _write_random_file(rng, paths[0], a)
            _write_random_file(rng, paths[1], b)
            expected = from_rows(enumerate(a + b, 1))
            got = parse(paths)
            assert got.records == expected.records, draw
            # a stable sort keeps equal submit times in arrival order
            assert got.records == tuple(sorted(a + b,
                                               key=lambda r: r.submit_ms))
            assert got == expected, draw
            # one job_id string a job, shared by its tasks
            assert all(got.job_id[p] is j
                       for j, ps in got.job_index.items() for p in ps)

    @pytest.mark.parametrize("bad_row, reason", [
        ("x,j0,map,0,0,,,SUCCESS,", "duration_ms must be > 0"),
        ("x,j0,Shuffle,0,1,,,SUCCESS,",
         "kind must be map or reduce, got 'shuffle'"),
        ("x,j0,map,0,1,,,maybe,", "outcome must be SUCCESS or FAIL, "
                                  "got 'MAYBE'"),
        ("x,,map,0,1,,,SUCCESS,", "task_id and job_id must be non-empty"),
        ("x,j0,map,0,1", "expected 9 fields, got 5"),
        ("task_id,job_id,kind,submit_ms,duration_ms,deadline_ms,"
         "preferred_node,outcome",
         "expected 9 fields, got 8"),
    ])
    def test_bad_row_is_named_by_its_line(self, tmp_path, bad_row, reason):
        rng = random.Random(bad_row)
        for draw in range(20):
            records = _random_records(rng, rng.randint(0, 10), "t", ["j0"],
                                      set())
            path = tmp_path / f"{draw}.csv"
            line = _write_random_file(rng, path, records, bad_row)
            with pytest.raises(MalformedRow) as exc:
                parse(path)
            assert (exc.value.line_no, exc.value.reason) == (line, reason)


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

    def test_every_spec_field_reads_back_from_text(self):
        spec = GeneratorSpec(n_tasks=7, failure_fraction=0.25,
                             profile="opencloud")
        assert parse_generator_spec("".join(
            f"{f.name} = {getattr(spec, f.name)}\n"
            for f in fields(spec))) == spec

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

    @pytest.mark.parametrize("profile", ["uniform", "opencloud"])
    def test_least_mean_duration_writes_a_parsable_trace(self, tmp_path,
                                                         profile):
        # a quick task draws from [mean / 2, 3 * mean / 2], which for a
        # 1 ms mean holds 0 ms, a duration the trace format rejects
        spec = GeneratorSpec(n_tasks=200, mean_duration_ms=1,
                             profile=profile)
        trace = synthesize(spec, seed=1)
        assert min(r.duration_ms for r in trace.records) >= 1
        out = tmp_path / "least.csv"
        write(trace, out)
        assert parse(out).records == trace.records

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
