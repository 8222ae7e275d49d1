"""Fault-tolerance tests for the supervised worker pool.

These are the tentpole's integration tests: SIGKILL a worker mid-job, hang a
job past its timeout, fail a job on every attempt — and assert the executor's
key invariant every time: **surviving records are byte-identical to a
fault-free run**, because injected faults fire before the simulation builds
and jobs are independently seeded.
"""

import time

import pytest

from repro.experiments import ChaosSpec, SupervisedPool, retry_backoff_s, run_serial
from repro.experiments import supervisor
from repro.experiments.config import SimulationConfig
from repro.experiments.matrix import matrix_from_axes


def _grid(protocols):
    return matrix_from_axes(
        "sup-test",
        "num_nodes",
        (9, 16, 25, 36),
        protocols=protocols,
        base_config=SimulationConfig(
            num_nodes=9,
            packets_per_node=1,
            transmission_radius_m=15.0,
            grid_spacing_m=5.0,
            seed=41,
        ),
    ).expand()


@pytest.fixture
def grid_jobs():
    return _grid(("spms",))


@pytest.fixture
def baseline(grid_jobs):
    """Fault-free serial canonical bytes, keyed by job key."""
    return {
        result.job.key: result.record.canonical_json()
        for result in run_serial(grid_jobs)
    }


def _pool_outcomes(jobs, **kwargs):
    outcomes = list(SupervisedPool(**kwargs).run(jobs))
    assert len(outcomes) == len(jobs)
    return {outcome.job.key: outcome for outcome in outcomes}


class TestBackoff:
    def test_deterministic_capped_doubling(self):
        assert retry_backoff_s(1) == 0.0
        assert retry_backoff_s(2) == pytest.approx(0.05)
        assert retry_backoff_s(3) == pytest.approx(0.10)
        assert retry_backoff_s(4) == pytest.approx(0.20)
        assert retry_backoff_s(9) == 2.0  # capped
        assert retry_backoff_s(3, base_s=0.5, cap_s=0.75) == 0.75

    def test_no_entropy(self):
        # Same inputs, same waits — retries never consult a clock or RNG.
        assert [retry_backoff_s(n) for n in range(1, 6)] == [
            retry_backoff_s(n) for n in range(1, 6)
        ]


class TestValidation:
    def test_pool_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match=">= 1 worker"):
            SupervisedPool(workers=0)
        with pytest.raises(ValueError, match="max_attempts"):
            SupervisedPool(workers=2, max_attempts=0)
        with pytest.raises(ValueError, match="job_timeout_s"):
            SupervisedPool(workers=2, job_timeout_s=0.0)

    def test_run_serial_rejects_bad_attempts(self):
        with pytest.raises(ValueError, match="max_attempts"):
            list(run_serial([], max_attempts=0))


class TestRunSerial:
    def test_fault_free_run(self, grid_jobs):
        results = list(run_serial(grid_jobs))
        assert [r.job.key for r in results] == [j.key for j in grid_jobs]
        assert all(r.ok and r.attempts == 1 and not r.failed_attempts for r in results)

    def test_transient_raise_is_retried(self, grid_jobs, baseline):
        chaos = ChaosSpec.parse("1:raise:1")
        results = {r.job.key: r for r in run_serial(grid_jobs, chaos=chaos)}
        retried = results[grid_jobs[1].key]
        assert retried.ok and retried.attempts == 2
        assert [a.outcome for a in retried.failed_attempts] == ["raised"]
        assert "ChaosError" in retried.failed_attempts[0].detail
        for key, result in results.items():
            assert result.record.canonical_json() == baseline[key]

    def test_persistent_raise_is_quarantined(self, grid_jobs, baseline):
        chaos = ChaosSpec.parse("2:raise")
        results = {r.job.key: r for r in run_serial(grid_jobs, chaos=chaos)}
        lost = results[grid_jobs[2].key]
        assert not lost.ok
        assert lost.failure is not None
        assert lost.failure.key == grid_jobs[2].key
        assert lost.failure.attempt_count == 3  # DEFAULT_MAX_ATTEMPTS
        assert [a.attempt for a in lost.failure.attempts] == [1, 2, 3]
        assert all(a.outcome == "raised" for a in lost.failure.attempts)
        # Key invariant: every survivor is byte-identical to the clean run.
        for job in grid_jobs:
            if job.index == 2:
                continue
            assert results[job.key].record.canonical_json() == baseline[job.key]


class TestSupervisedPoolFaults:
    def test_fault_free_pool_matches_serial_bytes(self, grid_jobs, baseline):
        outcomes = _pool_outcomes(grid_jobs, workers=2)
        for key, outcome in outcomes.items():
            assert outcome.ok
            assert outcome.record.canonical_json() == baseline[key]

    def test_sigkill_mid_job_respawns_and_requeues(self, grid_jobs, baseline):
        # Job 1's first attempt SIGKILLs its own worker: the supervisor must
        # notice the dead pipe, respawn the worker, requeue the job, and the
        # retry must produce the exact fault-free bytes.
        chaos = ChaosSpec.parse("1:kill:1")
        outcomes = _pool_outcomes(grid_jobs, workers=2, chaos=chaos)
        killed = outcomes[grid_jobs[1].key]
        assert killed.ok and killed.attempts == 2
        assert [a.outcome for a in killed.failed_attempts] == ["worker-crash"]
        assert "worker died" in killed.failed_attempts[0].detail
        for key, outcome in outcomes.items():
            assert outcome.record.canonical_json() == baseline[key]

    def test_hang_past_timeout_is_killed_and_retried(self, grid_jobs, baseline):
        # Job 0's first attempt hangs forever; the supervisor must SIGKILL the
        # worker at the deadline and the retry must succeed byte-identically.
        chaos = ChaosSpec.parse("0:hang:1")
        outcomes = _pool_outcomes(
            grid_jobs, workers=2, job_timeout_s=1.0, chaos=chaos
        )
        hung = outcomes[grid_jobs[0].key]
        assert hung.ok and hung.attempts == 2
        assert [a.outcome for a in hung.failed_attempts] == ["timeout"]
        assert "job timeout" in hung.failed_attempts[0].detail
        # The deadline itself wakes the supervisor, so the kill lands on
        # time whether or not the other worker completes anything.
        assert 1.0 <= hung.failed_attempts[0].elapsed_s < 1.5
        for key, outcome in outcomes.items():
            assert outcome.record.canonical_json() == baseline[key]

    def test_backoff_ends_while_another_worker_is_busy(self, grid_jobs, baseline):
        # Job 3, the last queued, raises once and waits out a 0.3 s backoff
        # while job 0 hangs on the other worker until its 3 s deadline.
        # Nothing completes in that window, so only the backoff can wake the
        # supervisor to hand the retry to the idle worker.
        chaos = ChaosSpec.parse("0:hang:1,3:raise:1")
        pool = SupervisedPool(
            workers=2, job_timeout_s=3.0, backoff_base_s=0.3, chaos=chaos
        )
        started = time.monotonic()
        arrived, outcomes = {}, {}
        for outcome in pool.run(grid_jobs):
            arrived[outcome.job.key] = time.monotonic() - started
            outcomes[outcome.job.key] = outcome
        retried = outcomes[grid_jobs[3].key]
        assert retried.ok and retried.attempts == 2
        assert [a.outcome for a in retried.failed_attempts] == ["raised"]
        assert 0.3 <= arrived[grid_jobs[3].key] < 3.0
        for key, outcome in outcomes.items():
            assert outcome.record.canonical_json() == baseline[key]

    def test_persistent_fault_quarantines_survivors_intact(self, grid_jobs, baseline):
        chaos = ChaosSpec.parse("3:raise")
        outcomes = _pool_outcomes(grid_jobs, workers=2, max_attempts=2, chaos=chaos)
        lost = outcomes[grid_jobs[3].key]
        assert not lost.ok
        assert lost.failure is not None
        assert lost.failure.attempt_count == 2
        assert lost.failure.last_outcome == "raised"
        survivors = [job for job in grid_jobs if job.index != 3]
        for job in survivors:
            assert outcomes[job.key].record.canonical_json() == baseline[job.key]

    def test_mixed_faults_acceptance_shape(self, grid_jobs, baseline):
        # The ISSUE acceptance scenario in miniature: one persistent raise,
        # one transient kill — the raise quarantines, the kill retries, and
        # every surviving record is byte-identical to the fault-free run.
        chaos = ChaosSpec.parse("0:raise,2:kill:1")
        outcomes = _pool_outcomes(
            grid_jobs, workers=2, max_attempts=2, job_timeout_s=30.0, chaos=chaos
        )
        assert not outcomes[grid_jobs[0].key].ok
        assert outcomes[grid_jobs[0].key].failure.last_outcome == "raised"
        assert outcomes[grid_jobs[2].key].ok
        assert outcomes[grid_jobs[2].key].attempts == 2
        for job in grid_jobs[1:]:
            assert outcomes[job.key].record.canonical_json() == baseline[job.key]

    def test_generator_close_tears_down_workers(self, grid_jobs):
        import multiprocessing

        before = len(multiprocessing.active_children())
        stream = SupervisedPool(workers=2).run(grid_jobs)
        first = next(stream)
        assert first.ok
        stream.close()
        # close() runs the supervisor's finally: every worker killed+joined.
        assert len(multiprocessing.active_children()) <= before


class TestEventDrivenWait:
    def test_supervisor_blocks_instead_of_spinning(self, monkeypatch):
        # With every worker busy and jobs queued, the supervisor must block
        # until a pipe is readable: no zero-timeout waits, and at most one
        # wake per completion plus one per worker.
        jobs = _grid(("spms", "spin"))
        assert len(jobs) == 8
        timeouts = []
        original = supervisor.mp_connection.wait

        def counting_wait(object_list, timeout=None):
            timeouts.append(timeout)
            return original(object_list, timeout)

        monkeypatch.setattr(supervisor.mp_connection, "wait", counting_wait)
        outcomes = _pool_outcomes(jobs, workers=2)
        assert all(outcome.ok for outcome in outcomes.values())
        assert [t for t in timeouts if t is not None and t <= 0] == []
        assert len(timeouts) <= len(jobs) + 2
