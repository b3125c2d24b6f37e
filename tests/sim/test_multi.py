"""Multi-resource simulation (§2.3 generalization under real scheduling)."""

import pytest

from repro.cluster import paper_cluster
from repro.core.multi_resource import CoordinateDescentEstimator
from repro.sim.multi import (
    MachineClass,
    MultiCluster,
    MultiJob,
    MultiSimulation,
)
from repro.workload import lanl_cm5_like, scale_load

from tests.sim.engine_reference import scalar_run


def job(job_id=1, submit=0.0, run=100.0, procs=4, group=None, **resources):
    """resources: name=(requested, used) pairs."""
    if not resources:
        resources = {"mem": (32.0, 4.0), "disk": (100.0, 10.0)}
    return MultiJob(
        job_id=job_id,
        submit_time=submit,
        run_time=run,
        procs=procs,
        requested={k: v[0] for k, v in resources.items()},
        used={k: v[1] for k, v in resources.items()},
        group=group,
    )


def two_class_cluster():
    return MultiCluster(
        [
            MachineClass(count=8, capacities={"mem": 32.0, "disk": 100.0}),
            MachineClass(count=8, capacities={"mem": 8.0, "disk": 50.0}),
        ]
    )


class TestMultiCluster:
    def test_allocation_respects_every_resource(self):
        cluster = two_class_cluster()
        # Needs big disk: only the first class qualifies.
        alloc = cluster.allocate(4, {"mem": 4.0, "disk": 80.0})
        assert alloc is not None
        assert alloc.min_capacities["disk"] == 100.0

    def test_best_fit_prefers_small_class(self):
        cluster = two_class_cluster()
        alloc = cluster.allocate(4, {"mem": 4.0, "disk": 10.0})
        assert alloc.min_capacities["mem"] == 8.0

    def test_release_restores(self):
        cluster = two_class_cluster()
        alloc = cluster.allocate(10, {"mem": 4.0, "disk": 10.0})
        assert cluster.free_nodes == 6
        cluster.release(alloc)
        assert cluster.free_nodes == 16

    def test_double_release_detected(self):
        cluster = two_class_cluster()
        alloc = cluster.allocate(4, {"mem": 4.0, "disk": 10.0})
        cluster.release(alloc)
        with pytest.raises(ValueError):
            cluster.release(alloc)

    def test_insufficient_returns_none(self):
        cluster = two_class_cluster()
        assert cluster.allocate(9, {"mem": 16.0, "disk": 10.0}) is None

    def test_fits_vs_can_allocate(self):
        cluster = two_class_cluster()
        cluster.allocate(8, {"mem": 16.0, "disk": 10.0})
        assert cluster.fits(8, {"mem": 16.0, "disk": 10.0})
        assert not cluster.can_allocate(1, {"mem": 16.0, "disk": 10.0})

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiCluster([])
        with pytest.raises(ValueError):
            MachineClass(count=0, capacities={"mem": 32.0})


class TestMultiSimulation:
    def test_baseline_completes_all(self):
        jobs = [job(job_id=i, submit=float(i * 5)) for i in range(10)]
        result = MultiSimulation(jobs, two_class_cluster()).run()
        assert len(result.outcomes) == 10
        assert result.n_failures == 0
        assert 0 < result.utilization <= 1

    def test_baseline_cannot_use_small_class(self):
        # All jobs request full big-class capacities; without estimation
        # only the 8 big nodes are usable -> jobs serialize.
        jobs = [job(job_id=i, submit=0.0, procs=8) for i in range(2)]
        result = MultiSimulation(jobs, two_class_cluster()).run()
        starts = sorted(o.start_time for o in result.outcomes)
        assert starts[1] >= 100.0

    def test_estimation_unlocks_small_class(self):
        # Same jobs with a shared group: after the first teaches the
        # estimator, later ones descend onto the small machines.
        jobs = [
            job(job_id=i, submit=float(i * 250), procs=8, group="g")
            for i in range(6)
        ]
        est = CoordinateDescentEstimator(alpha=2.0)
        result = MultiSimulation(jobs, two_class_cluster(), estimator=est).run()
        assert len(result.outcomes) == 6
        assert result.n_reduced_submissions > 0
        reduced = [o for o in result.outcomes if o.reduced]
        assert reduced

    def test_estimation_improves_utilization(self):
        jobs = [
            job(job_id=i, submit=float(i * 10), procs=8, group=i % 3)
            for i in range(30)
        ]
        base = MultiSimulation(jobs, two_class_cluster()).run()
        est = MultiSimulation(
            [  # fresh job objects not needed (frozen), fresh cluster is
                job(job_id=i, submit=float(i * 10), procs=8, group=i % 3)
                for i in range(30)
            ],
            two_class_cluster(),
            estimator=CoordinateDescentEstimator(alpha=2.0),
        ).run()
        assert est.utilization > base.utilization

    def test_failures_retry_to_completion(self):
        # One group's usage is too big for the small class: descent fails
        # once, then the job completes above.
        jobs = [
            job(
                job_id=i,
                submit=float(i * 300),
                procs=4,
                group="tight",
                mem=(32.0, 20.0),
                disk=(100.0, 10.0),
            )
            for i in range(5)
        ]
        result = MultiSimulation(
            jobs, two_class_cluster(), estimator=CoordinateDescentEstimator(), seed=1
        ).run()
        assert len(result.outcomes) == 5
        # Whatever failed was retried successfully.
        assert all(o.end_time > o.start_time for o in result.outcomes)

    def test_oversized_job_rejected(self):
        jobs = [job(job_id=1, procs=100)]
        result = MultiSimulation(jobs, two_class_cluster()).run()
        assert len(result.rejected) == 1

    def test_single_use(self):
        sim = MultiSimulation([job()], two_class_cluster())
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_deterministic(self):
        def run():
            jobs = [
                job(job_id=i, submit=float(i * 7), procs=8, group=i % 2)
                for i in range(20)
            ]
            return MultiSimulation(
                jobs,
                two_class_cluster(),
                estimator=CoordinateDescentEstimator(),
                seed=3,
            ).run()

        a, b = run(), run()
        assert a.utilization == b.utilization
        assert a.n_failures == b.n_failures


class TestMultiJobValidation:
    def test_mismatched_resources(self):
        with pytest.raises(ValueError):
            MultiJob(
                job_id=1,
                submit_time=0.0,
                run_time=10.0,
                procs=1,
                requested={"mem": 32.0},
                used={"disk": 1.0},
            )

    def test_task_uses_group_key(self):
        j = job(group="g7")
        assert j.task().group == "g7"

    def test_task_defaults_to_job_id(self):
        j = job(job_id=42, group=None)
        assert j.task().group == 42


@pytest.mark.parametrize("seed,load", [(0, 0.8), (1, 1.0), (2, 0.6)])
def test_single_resource_matches_the_scalar_engine(seed, load):
    """The oracle pin of this standalone event loop: with one resource and
    no estimator, FCFS best-fit over the paper's cluster starts, ends and
    rejects every job exactly as the scalar ``Simulation`` does."""
    workload = scale_load(lanl_cm5_like(n_jobs=2000, seed=seed), load)
    scalar = scalar_run(workload, paper_cluster(24.0), seed=seed,
                        collect_attempts=False)
    multi = MultiSimulation(
        [
            MultiJob(
                job_id=j.job_id,
                submit_time=j.submit_time,
                run_time=j.run_time,
                procs=j.procs,
                requested={"mem": j.req_mem},
                used={"mem": j.used_mem},
            )
            for j in workload
        ],
        MultiCluster([
            MachineClass(count=512, capacities={"mem": 32.0}),
            MachineClass(count=512, capacities={"mem": 24.0}),
        ]),
        seed=seed,
    ).run()
    assert sorted(
        (o.job.job_id, o.start_time, o.end_time) for o in multi.outcomes
    ) == sorted(
        (s.job.job_id, s.start_time, s.end_time) for s in scalar.summaries
    )
    assert multi.n_attempts == scalar.n_attempts
    assert {j.job_id for j in multi.rejected} == {
        j.job_id for j in scalar.rejected_jobs
    }
    assert multi.rejected  # full-machine 32 MB jobs fit nowhere
