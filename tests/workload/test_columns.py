"""The columnar data plane: JobColumns round trips, lazy workloads, and the
vectorized SWF fast path against the per-line reference parser."""

import numpy as np
import pytest

from repro.workload import (
    COLUMN_FIELDS,
    Job,
    JobColumns,
    LazyJobs,
    Workload,
    lanl_cm5_like,
    read_swf_text,
    scale_load,
)

from tests.sim.engine_reference import jobs_built


def jobs_fixture():
    return [
        Job(job_id=3, submit_time=5.0, run_time=60.0, procs=4,
            req_mem=24.0, used_mem=6.0, req_time=120.0,
            user_id=1, group_id=1, app_id=7, status=1),
        Job(job_id=1, submit_time=0.5, run_time=30.0, procs=1,
            req_mem=32.0, used_mem=32.0, req_time=-1.0,
            user_id=2, group_id=2, app_id=8, status=1),
        Job(job_id=2, submit_time=5.0, run_time=7.25, procs=16,
            req_mem=8.0, used_mem=1.0, req_time=10.0,
            user_id=3, group_id=3, app_id=9, status=0),
    ]


class TestJobColumnsRoundTrip:
    def test_from_jobs_to_jobs_is_bit_identical(self):
        jobs = jobs_fixture()
        assert JobColumns.from_jobs(jobs).to_jobs() == jobs

    def test_dtypes_match_the_declared_schema(self):
        cols = JobColumns.from_jobs(jobs_fixture())
        for name, dtype in COLUMN_FIELDS:
            assert getattr(cols, name).dtype == np.dtype(dtype)

    def test_buffer_round_trip_and_read_only_views(self):
        cols = JobColumns.from_jobs(jobs_fixture())
        buf = memoryview(bytearray(cols.nbytes))
        cols.pack_into(buf)
        back = JobColumns.from_buffer(buf, len(cols))
        assert back.equals(cols)
        with pytest.raises((ValueError, RuntimeError)):
            back.submit_time[0] = 99.0  # shared views must be immutable

    def test_validate_names_the_offending_row(self):
        cols = JobColumns.from_jobs(jobs_fixture())
        bad = cols.with_submit_time(
            np.array([0.0, -1.0, 0.0], dtype=np.float64)
        )
        with pytest.raises(ValueError, match="submit_time"):
            bad.validate()

    def test_sort_and_select(self):
        cols = JobColumns.from_jobs(jobs_fixture())
        assert not cols.is_sorted()
        by_submit = cols.sort_by_submit()
        assert by_submit.is_sorted()
        assert by_submit.job_id.tolist() == [1, 2, 3]  # job_id breaks the tie
        assert by_submit.sort_by_submit() is by_submit  # sorted: no-op copy
        small = by_submit.select(by_submit.procs < 8)
        assert small.job_id.tolist() == [1, 3]
        assert by_submit.head(2).job_id.tolist() == [1, 2]


class TestNonFiniteRejection:
    """``validate()`` must reject NaN/inf the same way ``swf.py`` does —
    non-finite values are never legitimate trace data, and NaN would slip
    through every ``<=``/``>=`` validity guard (all comparisons False)."""

    CHECKED = ("submit_time", "run_time", "req_mem", "used_mem", "req_time")

    @pytest.mark.parametrize("column", CHECKED)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_validate_rejects_non_finite_naming_the_row(self, column, value):
        cols = JobColumns.from_jobs(jobs_fixture())
        arr = getattr(cols, column).copy()
        arr[1] = value
        fields = {name: getattr(cols, name) for name, _ in COLUMN_FIELDS}
        fields[column] = arr
        bad = JobColumns(**fields)
        with pytest.raises(ValueError, match=rf"{column}.*finite.*row 1"):
            bad.validate()

    def test_swf_parser_drops_the_same_rows(self):
        # Row 2 carries a NaN runtime: both SWF lanes (vectorized and
        # per-line) drop it as malformed rather than letting it reach a
        # Job / JobColumns, which is why validate() can treat non-finite
        # as a construction bug.
        text = SWF_TEXT.replace(
            "2 5 -1 50 2", "2 5 -1 nan 2"
        )
        fast, fast_report = read_swf_text(text)
        assert 2 not in [job.job_id for job in fast]
        assert fast_report.skipped_malformed >= 1


class TestSelectHeadSemantics:
    """``select``/``head`` contract: fresh ``JobColumns`` whose arrays
    follow numpy indexing rules — fancy/boolean indexing copies, basic
    slicing views — so callers know when mutation can leak."""

    def test_select_returns_independent_copies(self):
        cols = JobColumns.from_jobs(jobs_fixture())
        picked = cols.select(np.array([0, 2]))
        masked = cols.select(cols.procs < 8)
        for sub in (picked, masked):
            assert not np.shares_memory(sub.submit_time, cols.submit_time)
        picked.submit_time[0] = 999.0
        assert cols.submit_time[0] != 999.0  # the parent never sees it

    def test_head_returns_views_over_the_parent(self):
        cols = JobColumns.from_jobs(jobs_fixture())
        top = cols.head(2)
        assert len(top) == 2
        assert np.shares_memory(top.submit_time, cols.submit_time)

    def test_head_of_buffer_backed_columns_stays_read_only(self):
        cols = JobColumns.from_jobs(jobs_fixture())
        buf = memoryview(bytearray(cols.nbytes))
        cols.pack_into(buf)
        shared = JobColumns.from_buffer(buf, len(cols))
        top = shared.head(2)
        with pytest.raises((ValueError, RuntimeError)):
            top.submit_time[0] = 99.0  # views inherit immutability


class TestLazyWorkloadEquivalence:
    def test_from_columns_matches_the_object_path(self):
        jobs = jobs_fixture()
        eager = Workload(list(jobs), total_nodes=1024, node_mem=32.0)
        lazy = Workload.from_columns(
            JobColumns.from_jobs(jobs), total_nodes=1024, node_mem=32.0
        )
        assert isinstance(lazy.jobs, LazyJobs)
        assert isinstance(eager.jobs, LazyJobs)
        assert list(lazy) == list(eager) == sorted(
            jobs, key=lambda j: (j.submit_time, j.job_id)
        )
        assert lazy == eager
        assert lazy.span == eager.span
        assert lazy.total_work == eager.total_work

    def test_release_rematerializes_identically(self):
        # The view keeps nothing: each pass builds new, equal jobs.
        lazy = Workload.from_columns(JobColumns.from_jobs(jobs_fixture()))
        first, again = list(lazy), list(lazy)
        assert first == again
        assert all(a is not b for a, b in zip(first, again))
        assert LazyJobs.__slots__ == ("_columns",)

    def test_view_indexes_like_a_list(self):
        workload = lanl_cm5_like(n_jobs=200, seed=3)
        jobs = list(workload)
        assert len(jobs) == len(workload.jobs) > 0
        for i in (0, 1, len(jobs) - 1, -1, -len(jobs)):
            assert workload[i] == jobs[i]
        assert workload.jobs[5:9] == jobs[5:9]
        assert workload.jobs[::-40] == jobs[::-40]
        assert workload.jobs == jobs and workload.jobs != jobs[1:]
        for bad in (len(jobs), -len(jobs) - 1):
            with pytest.raises(IndexError):
                workload[bad]
        assert repr(workload.jobs) == f"LazyJobs({len(jobs)} jobs)"

    def test_scale_load_on_lazy_workload_stays_lazy(self):
        base = lanl_cm5_like(n_jobs=200, seed=3)
        with jobs_built() as built:
            scaled = scale_load(base, 1.2)
        assert isinstance(scaled.jobs, LazyJobs)
        assert built == []
        assert len(scaled) == len(base)


SWF_TEXT = """\
; MaxNodes: 64
; MaxMemory: 32768
1 0 -1 100 4 -1 1024 4 200 2048 1 10 10 5 -1 -1 -1 -1
2 5 -1 50 2 -1 512 2 100 1024 1 11 11 6 -1 -1 -1 -1
3 9 -1 -1 2 -1 512 2 100 1024 0 11 11 6 -1 -1 -1 -1
4 12 -1 80 0 -1 -1 8 160 4096 1 12 12 7 -1 -1 -1 -1
"""


class TestSwfFastPathParity:
    def _force_fallback(self, monkeypatch):
        import repro.workload.swf as swf_mod

        monkeypatch.setattr(
            swf_mod.np, "loadtxt",
            lambda *a, **k: (_ for _ in ()).throw(ValueError("forced")),
        )

    @pytest.mark.parametrize("require_memory", [True, False])
    def test_fast_path_matches_reference_parser(self, monkeypatch, require_memory):
        fast, fast_report = read_swf_text(SWF_TEXT, require_memory=require_memory)
        self._force_fallback(monkeypatch)
        slow, slow_report = read_swf_text(SWF_TEXT, require_memory=require_memory)
        assert list(fast) == list(slow)
        assert fast.total_nodes == slow.total_nodes == 64
        assert fast.node_mem == slow.node_mem
        assert fast_report.summary() == slow_report.summary()

    def test_ragged_trace_falls_back_transparently(self):
        ragged = SWF_TEXT + "5 1 -1 10 1 -1\n"  # short row: loadtxt refuses
        workload, report = read_swf_text(ragged)
        assert report.skipped_malformed >= 1
        assert len(workload) == 2  # jobs 1 and 2; 3 lacks runtime, 4 memory

    def test_large_synthetic_round_trip_is_bit_identical(self):
        from repro.workload import write_swf_text

        base = lanl_cm5_like(n_jobs=300, seed=11)
        text = write_swf_text(base)
        fast, _ = read_swf_text(text)
        assert list(fast) == list(base)
