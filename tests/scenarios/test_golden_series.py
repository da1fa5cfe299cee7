"""Golden-file determinism: figure series must be byte-identical.

The committed CSVs under ``tests/scenarios/golden/`` were produced from
the figure scenarios at seed 0.  Any change to event ordering anywhere
in the stack — kernel, network, SOAP dispatch, the interceptor pipeline
— shows up here as a byte diff, which is exactly the property the
request fabric promises not to break.
"""

from pathlib import Path

import pytest

from repro.scenarios import run_fig6, run_fig7, run_fig8
from repro.telemetry.report import to_csv

GOLDEN_DIR = Path(__file__).parent / "golden"

FIGURES = {
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_series_match_committed_goldens(name):
    """The stock deployment reproduces the committed series.

    ``deploy_onserve`` is a one-replica ``deploy_fabric`` that
    constructs a disabled request router — ringed, wired to the OnServe,
    owning no endpoint — so this also proves the idle router inert.
    """
    golden_path = GOLDEN_DIR / f"{name}.csv"
    golden = golden_path.read_text()
    result = FIGURES[name](seed=0)
    actual = to_csv(result.series) + "\n"
    assert actual == golden, (
        f"{name} series drifted from {golden_path} — determinism broke "
        f"(or the scenario changed; regenerate the golden deliberately)")


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_inert_cache_layer(name, monkeypatch):
    """Attached-but-disabled client caches must not perturb a run.

    The cache layer's determinism contract: disabled caches store and
    serve nothing, and the coalescing plane (always attached, enabled
    only by ``config.coalesce``) creates zero events on the default
    path.  Re-running each figure with inert caches on every client
    must therefore reproduce the committed goldens byte-for-byte.
    """
    import repro.scenarios.common as common

    real_deploy = common.deploy_onserve

    def caching_deploy(testbed, config=None, **kw):
        proc = real_deploy(testbed, config, **kw)
        proc.add_callback(
            lambda ev: ev._value.enable_client_caches(enabled=False)
            if ev._ok else None)
        return proc

    monkeypatch.setattr(common, "deploy_onserve", caching_deploy)
    golden = (GOLDEN_DIR / f"{name}.csv").read_text()
    actual = to_csv(FIGURES[name](seed=0).series) + "\n"
    assert actual == golden, (
        f"{name} drifted with inert client caches attached — the "
        f"disabled cache layer perturbed the simulation")


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_idle_healing_plane_attached(
        name, monkeypatch):
    """A self-healing-*configured* but disabled router must stay inert.

    The self-healing determinism contract (DESIGN.md §13): leases,
    failover dedup and the overload ladder all hang off a router that
    is ``self_healing=True`` and holds a state store — but none of it
    runs until ``start_membership_watch`` / heartbeats start.  A
    disabled router with the full healing configuration attached must
    not cost one event, and its membership/dedup tables must stay
    empty for the whole run.
    """
    import repro.scenarios.common as common
    from repro.core.registry import ServiceStateStore
    from repro.ws.router import RequestRouter

    real_deploy = common.deploy_onserve
    stores = []

    def attach_healing_router(ev):
        if not ev._ok:
            return
        stack = ev._value
        store = ServiceStateStore(stack.dbmanager.db)
        stores.append(store)
        idle = RequestRouter(stack.appliance_host, stack.fabric,
                             enabled=False, store=store,
                             self_healing=True, lease_ttl=15.0,
                             lease_check_interval=5.0, fault_threshold=2,
                             shed_limit=8, backpressure_threshold=16)
        idle.add_replica(stack.appliance_host.name, stack.soap_server,
                         stack.onserve)
        stack.onserve.router = idle

    def healing_deploy(testbed, config=None, **kw):
        proc = real_deploy(testbed, config, **kw)
        proc.add_callback(attach_healing_router)
        return proc

    monkeypatch.setattr(common, "deploy_onserve", healing_deploy)
    golden = (GOLDEN_DIR / f"{name}.csv").read_text()
    actual = to_csv(FIGURES[name](seed=0).series) + "\n"
    assert actual == golden, (
        f"{name} drifted with the idle self-healing plane attached — "
        f"the disabled lease/dedup machinery perturbed the simulation")
    # Nothing leased, nothing deduped: the plane never woke up.
    assert stores
    assert stores[-1].members() == []
    assert stores[-1].dedup_count() == 0


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_idle_notify_queue_attached(
        name, monkeypatch):
    """An attached durable queue with no capable site must stay inert.

    The notification-plane determinism contract (DESIGN.md §14): a
    :class:`~repro.grid.notify.NotifyQueue` wired to the stack — every
    gatekeeper attached as *incapable* — publishes nothing, schedules
    nothing and leaves both durable tables empty, because the only
    event source is ``publish`` and only capable gatekeepers call it.
    Re-running each figure with one attached must reproduce the
    committed goldens byte-for-byte.
    """
    import repro.scenarios.common as common
    from repro.grid.notify import (
        JOB_STATES_TABLE, NOTIFY_QUEUE_TABLE, NotifyQueue,
    )

    real_deploy = common.deploy_onserve
    queues = []

    def notify_deploy(testbed, config=None, **kw):
        proc = real_deploy(testbed, config, **kw)

        def attach_idle_queue(ev):
            if not ev._ok:
                return
            stack = ev._value
            queue = NotifyQueue(stack.sim, stack.dbmanager.db)
            queues.append(queue)
            for gatekeeper in testbed.gatekeepers.values():
                gatekeeper.attach_notify(queue, capable=False)
            stack.onserve.notify_queue = queue

        proc.add_callback(attach_idle_queue)
        return proc

    monkeypatch.setattr(common, "deploy_onserve", notify_deploy)
    golden = (GOLDEN_DIR / f"{name}.csv").read_text()
    actual = to_csv(FIGURES[name](seed=0).series) + "\n"
    assert actual == golden, (
        f"{name} drifted with an idle notify queue attached — the "
        f"incapable notification plane perturbed the simulation")
    # Provably idle: nothing published, both durable tables empty.
    assert queues
    queue = queues[-1]
    assert queue.published == 0 and queue.capable_sites == []
    assert queue.db.select(JOB_STATES_TABLE, lambda r: True) == []
    assert queue.db.select(NOTIFY_QUEUE_TABLE, lambda r: True) == []


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_mvcc_and_idle_replica(name, monkeypatch):
    """MVCC on + an attached-but-disabled read replica must stay inert.

    The DB-scale determinism contract (DESIGN.md §15): MVCC is pure
    bookkeeping — version chains are saved and pruned in the writer's
    stack frame, no simulation event is ever created — and a disabled
    :class:`~repro.db.replica.ReadReplica` taps nothing, so its tables
    stay provably empty.  Re-running each figure with the engine in
    MVCC mode and a disabled replica attached to the appliance database
    must reproduce the committed goldens byte-for-byte.
    """
    import repro.scenarios.common as common
    from repro.db.replica import ReadReplica

    real_deploy = common.deploy_onserve
    replicas = []

    def attach_db_tier(ev):
        if not ev._ok:
            return
        stack = ev._value
        stack.dbmanager.db.mvcc = True
        replicas.append(ReadReplica(
            stack.sim, stack.dbmanager.db, lag=0.5, enabled=False))

    def tiered_deploy(testbed, config=None, **kw):
        proc = real_deploy(testbed, config, **kw)
        proc.add_callback(attach_db_tier)
        return proc

    monkeypatch.setattr(common, "deploy_onserve", tiered_deploy)
    golden = (GOLDEN_DIR / f"{name}.csv").read_text()
    actual = to_csv(FIGURES[name](seed=0).series) + "\n"
    assert actual == golden, (
        f"{name} drifted with MVCC + a disabled replica attached — the "
        f"DB-scale plane perturbed the simulation")
    # Provably inert: the disabled replica shipped and applied nothing.
    assert replicas
    replica = replicas[-1]
    assert replica.db.tables == {}
    assert replica.backlog() == 0
    assert replica.records_applied == 0


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_control_tower_attached(name, monkeypatch):
    """An attached-but-observing control tower must not perturb a run.

    The observability-plane determinism contract (DESIGN.md §12): the
    SLO tracker, fleet rollup and kernel profiler record in emitter
    stack frames and measure wall-clock only — zero simulation events,
    zero simulated time.  Re-running each figure with a full tower
    (SLO specs live, profiler hooks installed) must reproduce the
    committed goldens byte-for-byte.
    """
    import repro.scenarios.common as common
    from repro.telemetry.fleet import ControlTower
    from repro.telemetry.profiler import KernelProfiler
    from repro.telemetry.slo import BurnRule, SloSpec

    real_deploy = common.deploy_onserve
    towers = []

    def attach_tower(ev):
        if not ev._ok:
            return
        sim = ev._value.sim
        specs = [SloSpec("golden-availability", availability=0.99,
                         compliance_window=600.0, min_samples=1),
                 SloSpec("golden-latency", latency_target=30.0,
                         compliance_window=600.0, min_samples=1)]
        towers.append(ControlTower(
            sim, specs=specs, rules=(BurnRule(30.0, 120.0, 2.0),),
            profiler=KernelProfiler(sim)))

    def towered_deploy(testbed, config=None, **kw):
        proc = real_deploy(testbed, config, **kw)
        proc.add_callback(attach_tower)
        return proc

    monkeypatch.setattr(common, "deploy_onserve", towered_deploy)
    golden = (GOLDEN_DIR / f"{name}.csv").read_text()
    actual = to_csv(FIGURES[name](seed=0).series) + "\n"
    assert actual == golden, (
        f"{name} drifted with the control tower attached — the "
        f"observability plane perturbed the simulation")
    # The tower actually observed the run (not vacuously pure).  fig8
    # is upload+generate — no client-side ws.request stream — so the
    # SLO sample check only applies where that stream exists.
    from repro.telemetry.events import bus as telemetry_bus
    assert towers
    tower = towers[-1]
    assert tower.profiler.events_dispatched > 0
    requests = telemetry_bus(tower.sim).events("ws.request")
    if any(ev.get("side") == "client" for ev in requests):
        assert tower.slo.samples_recorded > 0
    tower.close()


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_goldens_unchanged_with_every_plane_attached(name, monkeypatch):
    """Every attach-but-disabled plane at once must not perturb a run.

    The guard the per-plane variants above are folded into: it attaches
    every plane to the same stack: a fault plane with zero specs,
    inert client caches, the disabled GridFTP session pool, one idle
    PollMux per site, a disabled router carrying the full self-healing
    configuration, a notify queue with every gatekeeper incapable, MVCC
    plus a disabled read replica, and a live-but-observing control
    tower.  The committed goldens must still reproduce byte-for-byte,
    and every plane's durable state must stay provably empty.
    """
    import repro.scenarios.common as common
    from repro.core.registry import ServiceStateStore
    from repro.db.replica import ReadReplica
    from repro.faults.injector import fault_plane
    from repro.grid.notify import (
        JOB_STATES_TABLE, NOTIFY_QUEUE_TABLE, NotifyQueue,
    )
    from repro.telemetry.fleet import ControlTower
    from repro.telemetry.profiler import KernelProfiler
    from repro.telemetry.events import bus as telemetry_bus
    from repro.telemetry.slo import BurnRule, SloSpec
    from repro.ws.router import RequestRouter

    class FaultAwareSimulator(common.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fault_plane(self)  # attached, zero specs => disabled

    towers = []
    stores = []
    queues = []
    replicas = []

    def attach_planes(stack):
        stack.enable_client_caches(enabled=False)
        pool = stack.agent._ftp_sessions
        assert pool is not None and not pool.enabled
        for site in stack.testbed.gatekeepers:
            mux = stack.onserve.poll_mux(site)
            assert mux.pending == 0
        # Disabled router carrying the *full* self-healing
        # configuration (leases, dedup store, overload ladder):
        # none of it may wake up on the faithful timeline.
        store = ServiceStateStore(stack.dbmanager.db)
        stores.append(store)
        idle = RequestRouter(stack.appliance_host, stack.fabric,
                             enabled=False, store=store,
                             self_healing=True, lease_ttl=15.0,
                             lease_check_interval=5.0,
                             fault_threshold=2, shed_limit=8,
                             backpressure_threshold=16)
        idle.add_replica(stack.appliance_host.name,
                         stack.soap_server, stack.onserve)
        stack.onserve.router = idle
        # Durable notify queue with every gatekeeper attached as
        # *incapable*: publish is never called, so it schedules
        # nothing and both durable tables must stay empty.
        queue = NotifyQueue(stack.sim, stack.dbmanager.db)
        queues.append(queue)
        for gatekeeper in stack.testbed.gatekeepers.values():
            gatekeeper.attach_notify(queue, capable=False)
        stack.onserve.notify_queue = queue
        # DB-scale plane: flip the live engine into MVCC mode
        # (pure bookkeeping) and attach a *disabled* WAL-shipping
        # replica — it must tap nothing and stay provably empty.
        stack.dbmanager.db.mvcc = True
        replicas.append(ReadReplica(
            stack.sim, stack.dbmanager.db, lag=0.5, enabled=False))
        towers.append(ControlTower(
            stack.sim,
            specs=[SloSpec("ci-availability", availability=0.99,
                           compliance_window=600.0, min_samples=1)],
            rules=(BurnRule(30.0, 120.0, 2.0),),
            profiler=KernelProfiler(stack.sim)))

    real_deploy = common.deploy_onserve

    def caching_deploy(testbed, config=None, **kw):
        proc = real_deploy(testbed, config, **kw)
        proc.add_callback(
            lambda ev: attach_planes(ev._value) if ev._ok else None)
        return proc

    monkeypatch.setattr(common, "Simulator", FaultAwareSimulator)
    monkeypatch.setattr(common, "deploy_onserve", caching_deploy)
    golden = (GOLDEN_DIR / f"{name}.csv").read_text()
    actual = to_csv(FIGURES[name](seed=0).series) + "\n"
    assert actual == golden, \
        (f"{name} drifted with fault/cache/datapath/router/tower/notify "
         f"planes attached")
    assert towers[-1].profiler.events_dispatched > 0, \
        f"{name}: the kernel profiler observed nothing"
    assert stores[-1].members() == [], \
        f"{name}: the idle healing plane leased members"
    assert stores[-1].dedup_count() == 0, \
        f"{name}: the idle healing plane recorded dedup rows"
    assert queues[-1].published == 0, \
        f"{name}: the incapable notify plane published"
    assert queues[-1].capable_sites == [], \
        f"{name}: a gatekeeper registered as notify-capable"
    assert queues[-1].db.select(
        JOB_STATES_TABLE, lambda r: True) == [], \
        f"{name}: job_states rows appeared on a faithful run"
    assert queues[-1].db.select(
        NOTIFY_QUEUE_TABLE, lambda r: True) == [], \
        f"{name}: notify_queue rows appeared on a faithful run"
    assert replicas[-1].db.tables == {}, \
        f"{name}: the disabled replica materialized tables"
    assert replicas[-1].backlog() == 0, \
        f"{name}: the disabled replica buffered WAL records"
    assert replicas[-1].records_applied == 0, \
        f"{name}: the disabled replica applied WAL records"
    # The tower actually observed the run (not vacuously pure).  fig8
    # is upload+generate — no client-side ws.request stream — so the
    # SLO sample check only applies where that stream exists.
    requests = telemetry_bus(towers[-1].sim).events("ws.request")
    if any(ev.get("side") == "client" for ev in requests):
        assert towers[-1].slo.samples_recorded > 0, \
            f"{name}: the SLO tracker recorded no samples"
    towers[-1].close()
