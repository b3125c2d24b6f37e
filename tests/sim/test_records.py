"""Attempt records, job summaries and run results."""

import pytest

from repro.sim.records import (
    AttemptLog, AttemptRecord, JobSummary, JobTable, Records, SimResult,
)
from repro.workload import Workload
from tests.conftest import make_job


def attempt(job_id=1, start=0.0, end=100.0, succeeded=True, **kw):
    defaults = dict(
        job_id=job_id,
        attempt=0,
        submit_time=0.0,
        start_time=start,
        end_time=end,
        procs=4,
        requirement=32.0,
        granted=32.0,
        succeeded=succeeded,
        resource_failure=not succeeded,
        reduced=False,
    )
    defaults.update(kw)
    return AttemptRecord(**defaults)


def summary(job=None, first_submit=0.0, start=10.0, end=110.0, **kw):
    job = job or make_job(run_time=100.0)
    defaults = dict(
        job=job,
        first_submit=first_submit,
        start_time=start,
        end_time=end,
        n_attempts=1,
        n_resource_failures=0,
        completed=True,
        final_requirement=32.0,
        final_granted=32.0,
        reduced=False,
        wasted_node_seconds=0.0,
    )
    defaults.update(kw)
    return JobSummary(**defaults)


class TestAttemptRecord:
    def test_duration_and_node_seconds(self):
        a = attempt(start=10.0, end=60.0, procs=4)
        assert a.duration == 50.0
        assert a.node_seconds == 200.0


class TestJobSummary:
    def test_response_and_wait(self):
        s = summary(first_submit=0.0, start=10.0, end=110.0)
        assert s.response_time == 110.0
        assert s.wait_time == pytest.approx(10.0)

    def test_slowdown_definition(self):
        # (wait + run) / run, per the paper's footnote 5.
        s = summary(first_submit=0.0, start=100.0, end=200.0)
        assert s.slowdown == pytest.approx(2.0)

    def test_bounded_slowdown_floor(self):
        short = summary(
            job=make_job(run_time=1.0), first_submit=0.0, start=0.0, end=1.0
        )
        assert short.bounded_slowdown(threshold=10.0) == 1.0

    def test_zero_runtime_slowdown_is_inf_not_an_error(self):
        # Real traces record zero-second runtimes (accounting truncation).
        # Job validation rejects them at construction, but summaries built
        # from externally-loaded records must not crash mean_slowdown with a
        # ZeroDivisionError — the slowdown of a zero-runtime job is inf.
        from types import SimpleNamespace

        s = summary(job=SimpleNamespace(run_time=0.0), first_submit=0.0, end=50.0)
        assert s.slowdown == float("inf")
        assert s.bounded_slowdown(threshold=10.0) == pytest.approx(5.0)


def job_table(summaries, rejected=()) -> JobTable:
    """``summaries`` (in submit order) as the job table both engines fill,
    over a workload of their jobs plus the ``rejected`` ones."""
    workload = Workload([s.job for s in summaries] + list(rejected))
    rows = {job.job_id: row for row, job in enumerate(workload.jobs)}
    columns = [[None] * len(workload) for _ in range(9)]
    for s in summaries:
        for column, value in zip(columns, s[2:]):
            column[rows[s.job.job_id]] = value
    return JobTable(
        workload, [rows[job.job_id] for job in rejected], tuple(columns)
    )


def attempt_log(attempts, levels=(16.0, 32.0)) -> AttemptLog:
    """``attempts`` as the attempt log both engines fill."""
    log = AttemptLog(levels)
    for a in attempts:
        log.append(
            tuple(a[:11]),
            [(levels.index(level), take) for level, take in a.allocation],
        )
    return log


class TestTables:
    def test_records_decode_what_was_written(self):
        attempts = [
            attempt(allocation=((16.0, 1), (32.0, 3))),
            attempt(job_id=2, succeeded=False, allocation=((32.0, 4),)),
        ]
        later = make_job(job_id=2, submit_time=5.0)
        summaries = [summary(), summary(job=later, first_submit=5.0)]
        view = Records(attempt_log(attempts))
        assert list(view) == attempts and view == attempts
        assert view[1] == view[-1] == attempts[1]
        assert view[::-1] == attempts[::-1]
        with pytest.raises(IndexError):
            view[2]
        jobs = Records(job_table(summaries))
        assert list(jobs) == summaries and jobs[-1] == summaries[1]
        assert repr(jobs) == "Records(JobTable, 2 rows)"

    def test_rejected_rows_have_no_summary(self):
        rejected = make_job(job_id=3, submit_time=1.0)
        table = job_table([summary()], rejected=[rejected])
        assert table.rows.tolist() == [0]
        assert list(Records(table)) == [summary()]

    def test_an_unfinished_row_is_an_error(self):
        workload = Workload([make_job(job_id=7)])
        columns = tuple([None] for _ in range(9))
        with pytest.raises(RuntimeError, match="job 7 finished the trace"):
            JobTable(workload, [], columns)


class TestSimResult:
    def make_result(self):
        return SimResult(
            workload_name="w",
            cluster_name="c",
            estimator_name="e",
            policy_name="fcfs",
            total_nodes=8,
            attempts=Records(attempt_log(
                [attempt(), attempt(job_id=2, succeeded=False)]
            )),
            summaries=Records(job_table([summary()])),
            rejected_jobs=[],
            t_first_submit=0.0,
            t_last_end=110.0,
            n_attempts=2,
            n_resource_failures=1,
            n_spurious_failures=0,
            n_reduced_submissions=1,
            useful_node_seconds=400.0,
            wasted_node_seconds=400.0,
        )

    def test_counters(self):
        r = self.make_result()
        assert r.makespan == 110.0
        assert r.n_jobs == 1
        assert r.n_completed == 1
        assert r.frac_reduced_submissions == 0.5
        assert r.frac_failed_executions == 0.5

    def test_empty_fractions(self):
        r = SimResult(
            workload_name="w",
            cluster_name="c",
            estimator_name="e",
            policy_name="fcfs",
            total_nodes=8,
            attempts=Records(attempt_log([])),
            summaries=Records(job_table([])),
            rejected_jobs=[],
            t_first_submit=0.0,
            t_last_end=0.0,
        )
        assert r.frac_reduced_submissions == 0.0
        assert r.frac_failed_executions == 0.0

    def test_summary_table_mentions_names(self):
        text = self.make_result().summary_table()
        assert "fcfs" in text
        assert "1 resource failures" in text

    def test_arrays(self):
        r = self.make_result()
        assert r.slowdowns().tolist() == [pytest.approx(1.1)]
        assert r.wait_times().tolist() == [pytest.approx(10.0)]
