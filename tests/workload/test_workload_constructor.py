"""``Workload(jobs)`` is ``Workload.from_columns(JobColumns.from_jobs(jobs))``.

A workload is its columns: the job-list constructor converts the list once
and sorts the rows by ``(submit_time, job_id)``.  These properties pin, on
shuffled job lists whose submit times tie, that the rows come out in that
order, equal the columns built directly column for column, that a repeated
id is refused, and that every transform gives, bit for bit, what a per-job
reference computed here gives.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.columns import COLUMN_FIELDS, JobColumns
from repro.workload.job import Job, Workload
from repro.workload.transforms import (
    drop_full_machine_jobs,
    head,
    scale_load,
    shift_to_zero,
)

#: Few distinct submit times, so rows tie and the job id breaks the tie.
SUBMITS = (0.0, 0.5, 3.0, 7.25, 1e3 / 3)


def _order(job: Job) -> tuple:
    return job.submit_time, job.job_id


@st.composite
def job_lists(draw, min_size=0, max_size=30):
    """A shuffled list of jobs with unique ids and tied submit times."""
    n = draw(st.integers(min_size, max_size))
    ids = draw(st.lists(st.integers(-50, 10_000), min_size=n, max_size=n,
                        unique=True))
    jobs = [
        Job(
            job_id=job_id,
            submit_time=draw(st.sampled_from(SUBMITS)),
            run_time=draw(st.floats(0.1, 1e5)),
            procs=draw(st.integers(1, 80)),
            req_mem=draw(st.sampled_from((8.0, 24.0, 32.0))),
            used_mem=draw(st.floats(0.01, 32.0)),
            req_time=draw(st.sampled_from((-1.0, 60.0, 1e4))),
            user_id=draw(st.integers(-1, 5)),
            group_id=draw(st.integers(-1, 5)),
            app_id=draw(st.integers(-1, 5)),
            status=draw(st.integers(0, 5)),
        )
        for job_id in ids
    ]
    return draw(st.permutations(jobs))


def _bits(jobs) -> list:
    """Each job with its floats as hex strings, so == compares bits."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in job)
        for job in jobs
    ]


def _same_columns(a: JobColumns, b: JobColumns) -> bool:
    return all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name, _ in COLUMN_FIELDS
    )


def _workload(jobs, total_nodes) -> Workload:
    return Workload(jobs, total_nodes=total_nodes, node_mem=32.0, name="w")


@settings(max_examples=200, deadline=None)
@given(job_lists(), st.integers(1, 64))
def test_job_list_sorts_and_equals_its_columns(jobs, total_nodes):
    workload = _workload(jobs, total_nodes)
    reference = sorted(jobs, key=_order)
    assert _bits(workload) == _bits(reference)
    assert [_order(job) for job in workload] == sorted(map(_order, jobs))
    direct = Workload.from_columns(
        JobColumns.from_jobs(jobs), total_nodes=total_nodes, node_mem=32.0,
        name="w",
    )
    assert _same_columns(workload.as_columns(), direct.as_columns())
    assert workload == direct


@settings(max_examples=100, deadline=None)
@given(job_lists(min_size=1), st.data())
def test_repeated_id_is_refused(jobs, data):
    twin = data.draw(st.sampled_from(jobs))
    repeated = twin._replace(submit_time=twin.submit_time + 1.0)
    shuffled = data.draw(st.permutations(jobs + [repeated]))
    with pytest.raises(
        ValueError, match=f"^job id {twin.job_id} appears more than once$"
    ):
        _workload(shuffled, 64)


@settings(max_examples=200, deadline=None)
@given(job_lists(), st.integers(1, 64),
       st.floats(0.05, 4.0), st.integers(0, 40))
def test_transforms_match_a_per_job_reference(jobs, total_nodes, load, n):
    workload = _workload(jobs, total_nodes)
    rows = sorted(jobs, key=_order)

    def same(got: Workload, want, name: str) -> None:
        assert _bits(got) == _bits(want)
        assert (got.total_nodes, got.node_mem, got.name) == (
            total_nodes, 32.0, name)

    same(head(workload, n), rows[:n], f"w-head{n}")
    same(drop_full_machine_jobs(workload),
         [job for job in rows if job.procs < total_nodes], "w-nofull")

    t0 = rows[0].submit_time if rows else 0.0
    shifted = shift_to_zero(workload)
    if t0 == 0:
        assert shifted is workload
    else:
        same(shifted, [job.with_submit_time(job.submit_time - t0)
                       for job in rows], "w")

    span = rows[-1].submit_time - t0 if rows else 0.0
    if span <= 0:
        with pytest.raises(ValueError, match="zero span or no jobs"):
            scale_load(workload, load)
        return
    work = 0.0
    for job in rows:  # row order, as summing Job.work would
        work += job.work
    factor = work / (total_nodes * span) / load
    scaled = sorted(
        (job.with_submit_time(t0 + (job.submit_time - t0) * factor)
         for job in rows),
        key=_order,
    )
    same(scale_load(workload, load), scaled, f"w@load{load:g}")
