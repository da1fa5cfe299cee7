"""The chaos drill: invariants, shape, determinism (smoke-sized)."""

import pytest

from repro.scenarios import ChaosResult, run_chaos
from repro.scenarios.chaos import CRASH_WINDOWS


@pytest.fixture(scope="module")
def result():
    return run_chaos(smoke=True)


def test_smoke_drill_holds_every_invariant(result):
    assert result.ok, result.render()
    assert result.lost == 0
    assert result.dedup_duplicates == 0
    assert result.detection_ok
    assert result.rejoined
    assert not result.slo_violated


def test_smoke_drill_shape(result):
    assert result.smoke
    assert result.kill == 1 and result.restart == 1
    assert len(result.crashed) == 1
    assert result.restarted == result.crashed[:1]
    assert result.invocations == result.clients * result.rounds
    assert result.completed == result.invocations
    assert result.availability == 1.0
    assert result.elapsed > 0 and result.calibration_elapsed > 0
    assert len(result.latencies) == result.invocations
    # The crash actually bit: something was in flight or failed over.
    assert result.max_detection_lag <= result.detection_bound


def test_smoke_drill_is_deterministic():
    a = run_chaos(smoke=True)
    b = run_chaos(smoke=True)
    assert a.crashed == b.crashed
    assert a.detection_lags == b.detection_lags
    assert a.elapsed == b.elapsed
    assert a.latencies == b.latencies
    assert a.failovers == b.failovers


def test_peak_crashes_are_repeatable_within_one_process():
    """Full client load, two crashes, three runs in one interpreter.

    Crash interrupts fire in admission order.  Were they to follow an
    ``id()``-ordered container, the failover timeline would depend on
    where the interpreter happened to place each proxy process, and
    repeated runs would drift.
    """
    renders = {run_chaos(clients=48, rounds=1).render() for _ in range(3)}
    assert len(renders) == 1, renders


def test_render_mentions_the_gates(result):
    text = result.render()
    assert "Chaos drill" in text
    assert "zero lost requests" in text
    assert "no double execution" in text
    assert "detection lag bounded" in text
    assert "availability SLO held" in text
    assert "ALL INVARIANTS HOLD" in text


def test_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        run_chaos(kill=0)
    with pytest.raises(ValueError):
        run_chaos(replicas=2, kill=2)        # must leave a survivor
    with pytest.raises(ValueError):
        run_chaos(kill=2, restart=3)         # can't restart the living
    with pytest.raises(ValueError):
        run_chaos(kill=len(CRASH_WINDOWS) + 1)


def test_failed_gate_renders_fail(result):
    broken = ChaosResult(
        replicas=result.replicas, clients=result.clients,
        services=result.services, rounds=result.rounds,
        kill=result.kill, restart=result.restart,
        invocations=result.invocations, losses=[(0, "ReplicaDown")],
        latencies=result.latencies, elapsed=result.elapsed,
        calibration_elapsed=result.calibration_elapsed,
        crashed=result.crashed, restarted=result.restarted,
        rejoined=result.rejoined, detection_lags=result.detection_lags,
        detection_bound=result.detection_bound,
        slo_violated=result.slo_violated, failovers=result.failovers,
        dedup_hits=result.dedup_hits,
        dedup_duplicates=result.dedup_duplicates,
        inflight_killed=result.inflight_killed,
        requests_routed=result.requests_routed,
        seed=result.seed, smoke=result.smoke)
    assert not broken.ok
    assert broken.availability < 1.0
    assert "FAIL" in broken.render()
