"""Job record and Workload container."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given

from repro.workload.job import Job, Workload, validate_overprovisioning_assumption
from tests.conftest import job_strategy, make_job, make_workload


class TestJobValidation:
    def test_valid_job(self):
        job = make_job()
        assert job.procs == 32

    def test_negative_submit_rejected(self):
        with pytest.raises(ValueError):
            make_job(submit_time=-1.0)

    def test_zero_runtime_rejected(self):
        with pytest.raises(ValueError):
            make_job(run_time=0.0)

    def test_zero_procs_rejected(self):
        with pytest.raises(ValueError):
            make_job(procs=0)

    @pytest.mark.parametrize("field", ["req_mem", "used_mem"])
    def test_non_positive_memory_rejected(self, field):
        with pytest.raises(ValueError):
            make_job(**{field: 0.0})


class TestJobProperties:
    def test_overprovisioning_ratio(self):
        assert make_job(req_mem=32.0, used_mem=8.0).overprovisioning_ratio == 4.0

    def test_work(self):
        assert make_job(run_time=100.0, procs=32).work == 3200.0

    def test_runtime_estimate_prefers_req_time(self):
        assert make_job(run_time=100.0, req_time=500.0).runtime_estimate == 500.0

    def test_runtime_estimate_falls_back_to_run_time(self):
        assert make_job(run_time=100.0, req_time=-1.0).runtime_estimate == 100.0

    def test_with_submit_time_preserves_everything_else(self):
        job = make_job(submit_time=5.0, req_mem=24.0)
        moved = job.with_submit_time(99.0)
        assert moved.submit_time == 99.0
        assert moved.req_mem == 24.0
        assert moved.job_id == job.job_id

    def test_frozen(self):
        with pytest.raises(Exception):
            make_job().submit_time = 3.0  # type: ignore[misc]


class TestWorkload:
    def test_sorted_by_submit_time(self):
        jobs = [make_job(job_id=i, submit_time=t) for i, t in [(1, 30.0), (2, 10.0), (3, 20.0)]]
        w = make_workload(jobs)
        assert [j.job_id for j in w] == [2, 3, 1]

    def test_len_iter_getitem(self):
        w = make_workload([make_job(job_id=1), make_job(job_id=2, submit_time=1.0)])
        assert len(w) == 2
        assert [j.job_id for j in w] == [1, 2]
        assert w[1].job_id == 2

    def test_repeated_job_id_rejected(self):
        # The engines key per-job state by id: a repeated id would give
        # one job's outcome to another.
        jobs = [make_job(job_id=1), make_job(job_id=2, submit_time=5.0),
                make_job(job_id=1, submit_time=9.0)]
        with pytest.raises(ValueError, match="job id 1 appears more than once"):
            make_workload(jobs)

    def test_repeated_job_id_rejected_columnar(self):
        cols = make_workload(
            [make_job(job_id=1), make_job(job_id=2, submit_time=5.0)]
        ).as_columns()
        repeated = replace(cols, job_id=np.array([7, 7]))
        with pytest.raises(ValueError, match="job id 7 appears more than once"):
            Workload.from_columns(repeated)
        with pytest.raises(ValueError, match="job id 7"):
            Workload.from_columns(repeated, presorted=True)

    def test_span(self):
        w = make_workload([make_job(job_id=1, submit_time=10.0), make_job(job_id=2, submit_time=110.0)])
        assert w.span == 100.0

    def test_span_empty(self):
        assert make_workload([]).span == 0.0

    def test_total_work(self):
        w = make_workload([make_job(run_time=10.0, procs=4), make_job(job_id=2, run_time=5.0, procs=2)])
        assert w.total_work == 50.0

    def test_filter(self):
        w = make_workload([make_job(job_id=1, procs=4), make_job(job_id=2, procs=1024)])
        small = w.filter(lambda j: j.procs < 1024)
        assert len(small) == 1 and small[0].job_id == 1
        assert small.total_nodes == w.total_nodes

    def test_map(self):
        w = make_workload([make_job(submit_time=5.0)])
        shifted = w.map(lambda j: j.with_submit_time(0.0))
        assert shifted[0].submit_time == 0.0

    def test_overprovisioning_ratios_clip_at_one(self):
        # Accounting noise: used > requested gets clipped to ratio 1.
        w = make_workload([make_job(req_mem=8.0, used_mem=16.0)])
        assert w.overprovisioning_ratios().tolist() == [1.0]

    def test_column(self):
        w = make_workload([make_job(procs=4), make_job(job_id=2, procs=8, submit_time=1.0)])
        assert w.column("procs").tolist() == [4, 8]

    @given(job_strategy())
    def test_single_job_workload_properties(self, job):
        w = make_workload([job])
        assert w.total_work == job.work
        assert w.overprovisioning_ratios()[0] >= 1.0


class TestAssumptionAudit:
    def test_flags_violations(self):
        good = make_job(job_id=1)
        bad = make_job(job_id=2, req_mem=4.0, used_mem=8.0)
        assert validate_overprovisioning_assumption([good, bad]) == [bad]

    def test_clean_trace(self):
        assert validate_overprovisioning_assumption([make_job()]) == []
