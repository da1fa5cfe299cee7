"""Integration tests for the replica fabric (deploy_fabric + store)."""

import pytest

from repro.core.fabric import OnServeStack, deploy_fabric
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.errors import OnServeError
from repro.grid.testbed import build_testbed
from repro.simkernel import Simulator
from repro.units import KB
from repro.workloads.executables import make_payload


def deploy(replicas=3, n_users=3, router=None, config=None, seed=0):
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim=sim, n_users=n_users)
    stack = sim.run(until=deploy_fabric(testbed, config or OnServeConfig(),
                                        replicas=replicas, router=router))
    return sim, testbed, stack


def publish(sim, testbed, stack, filename="route.bin", runtime="2"):
    payload = make_payload("fixed", size=int(KB(32)), runtime=runtime,
                           output_bytes="64")
    return sim.run(until=stack.portal.upload_and_generate(
        testbed.user_hosts[0], filename, payload))


def test_replicas_must_be_positive():
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=1)
    with pytest.raises(OnServeError):
        deploy_fabric(testbed, replicas=0)


def test_single_replica_passthrough_keeps_direct_endpoints():
    sim, testbed, stack = deploy(replicas=1)
    assert isinstance(stack, OnServeStack)
    assert not stack.router.enabled
    assert stack.replica_hosts[0] is stack.appliance_host
    service = publish(sim, testbed, stack)
    # Router off: services publish the appliance's own endpoint and
    # nothing routes through the (attached-but-disabled) router.
    assert service.endpoint.startswith("soap://appliance/")
    result = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Route%"))
    assert result
    assert stack.router.requests_routed == 0


def test_fabric_publishes_router_endpoint():
    sim, testbed, stack = deploy(replicas=2)
    service = publish(sim, testbed, stack)
    assert service.endpoint == "soap://router/RouteService"
    row = stack.store.get_record("RouteService")
    assert row["endpoint"] == "soap://router/RouteService"
    assert row["replica"] == "appliance"


def test_deploy_on_primary_invoke_anywhere():
    sim, testbed, stack = deploy(replicas=3)
    publish(sim, testbed, stack)
    # Force materialization on a replica that did not generate the
    # service: the store row + DB executable are enough to rebuild.
    other = stack.onserves[2]
    assert "RouteService" not in other.services
    sim.run(until=sim.process(
        other.ensure_local_service("RouteService")))
    assert "RouteService" in other.services
    assert "RouteService" in other.soap_server.services()
    # And the routed client path works end to end.
    result = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[1], "Route%"))
    assert result
    assert stack.router.requests_routed > 0


def test_materialized_replica_serves_without_republishing(monkeypatch):
    sim, testbed, stack = deploy(replicas=2)
    publish(sim, testbed, stack)
    # Materialization must not touch UDDI: placement truth stays put.
    before = sim.run(until=stack.user_clients[0].call(
        stack.inquiry_endpoint(), "findService", pattern="Route%"))
    sim.run(until=sim.process(
        stack.onserves[1].ensure_local_service("RouteService")))
    after = sim.run(until=stack.user_clients[0].call(
        stack.inquiry_endpoint(), "findService", pattern="Route%"))
    assert before == after


def test_cross_replica_undeploy_invalidates_everywhere():
    sim, testbed, stack = deploy(replicas=3)
    publish(sim, testbed, stack)
    sim.run(until=sim.process(
        stack.onserves[1].ensure_local_service("RouteService")))
    # Undeploy through a replica that never materialized the service.
    sim.run(until=stack.onserves[2].undeploy_service("RouteService"))
    assert stack.store.get_record("RouteService") is None
    for onserve in stack.onserves:
        assert "RouteService" not in onserve.services
        assert "RouteService" not in onserve.soap_server.services()


def test_replacement_upload_refreshes_materialized_replicas_in_place():
    sim, testbed, stack = deploy(replicas=2)
    publish(sim, testbed, stack)
    replica = stack.onserves[1]
    sim.run(until=sim.process(replica.ensure_local_service("RouteService")))
    runtime = replica.runtimes["RouteService"]
    # Re-uploading the same filename republishes on the primary; the
    # store fan-out refreshes replica 1's copy in place — same runtime,
    # still deployed — with the new size and parameter spec.
    payload = make_payload("fixed", size=int(KB(48)), runtime="2",
                           output_bytes="64")
    sim.run(until=stack.portal.upload_and_generate(
        testbed.user_hosts[0], "route.bin", payload,
        params_spec="label:string"))
    assert replica.runtimes["RouteService"] is runtime
    assert "RouteService" in replica.soap_server.services()
    assert runtime.record.size == len(payload)
    assert [p.name for p in runtime.record.params] == ["label"]
    execute = replica.soap_server.service(
        "RouteService").description.operation("execute")
    assert [p.name for p in execute.params] == ["label"]


def test_republish_during_materialization_refreshes_once_built():
    sim, testbed, stack = deploy(replicas=2)
    publish(sim, testbed, stack)
    replica = stack.onserves[1]
    # The replacement commits while replica 1 is still building its copy
    # from the old row; the copy must come up with the new record.
    build = sim.process(replica.ensure_local_service("RouteService"))
    payload = make_payload("fixed", size=int(KB(48)), runtime="2",
                           output_bytes="64")
    upload = stack.onserve.generate_service("route.bin", payload,
                                            params_spec="label:string")
    sim.run(until=upload)
    assert "RouteService" in replica._materializing
    sim.run(until=build)
    record = replica.runtimes["RouteService"].record
    assert record.size == len(payload)
    assert [p.name for p in record.params] == ["label"]


def test_republish_between_materialize_and_dispatch_serves_the_call():
    """A replacement landing while a routed call is in flight to another
    replica — after that replica materialized the service, before the
    proxied request dispatches — must not fault the call."""
    sim, testbed, stack = deploy(replicas=2)
    publish(sim, testbed, stack)
    serving = stack.onserve_for(
        stack.router.ring.preference("RouteService")[0])
    assert serving is not stack.onserve  # materializes on first call
    real_ensure = serving.ensure_local_service
    payload = make_payload("fixed", size=int(KB(40)), runtime="2",
                           output_bytes="64")
    republished = []

    def ensure_then_republish(service_name, ctx=None):
        yield from real_ensure(service_name, ctx)
        if service_name == "RouteService" and not republished:
            republished.append(sim.now)
            yield stack.onserve.generate_service("route.bin", payload)

    serving.ensure_local_service = ensure_then_republish
    result = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Route%"))
    assert result
    assert republished
    assert serving.runtimes["RouteService"].record.size == len(payload)


def test_routed_fabric_honours_notify():
    from repro.telemetry.events import bus
    config = OnServeConfig(notify=True, notify_sites=("*",))
    sim, testbed, stack = deploy(replicas=2, config=config)
    publish(sim, testbed, stack)
    result = sim.run(until=discover_and_invoke(
        stack, stack.user_clients[0], "Route%"))
    assert result
    # One durable queue over the shared DB, read by every replica.
    queue = stack.onserve.notify_queue
    assert queue is not None
    assert all(o.notify_queue is queue for o in stack.onserves)
    assert queue.published > 0 and queue.depth == 0
    # Detection came by push: zero poll rounds.
    detected = bus(sim).first("core.output_detected")
    assert detected.fields["pushed"] and detected.fields["polls"] == 0


def test_invocation_counts_are_fabric_wide():
    sim, testbed, stack = deploy(replicas=2)
    publish(sim, testbed, stack)
    for client in stack.user_clients[:2]:
        sim.run(until=discover_and_invoke(stack, client, "Route%"))
    row = stack.store.get_record("RouteService")
    assert row["invocations"] == 2


def test_enable_client_caches_is_idempotent():
    sim, testbed, stack = deploy(replicas=2)
    stack.enable_client_caches()
    listeners = [len(o.soap_server._undeploy_listeners)
                 for o in stack.onserves]
    caches = [client.cache for client in stack.user_clients]
    stack.enable_client_caches()
    # Second call replaces the caches instead of stacking hook layers.
    assert [len(o.soap_server._undeploy_listeners)
            for o in stack.onserves] == listeners
    assert all(client.cache is not None for client in stack.user_clients)
    assert all(client.cache is not old
               for client, old in zip(stack.user_clients, caches))


def test_remediation_drains_and_restarts_the_hot_replica():
    from types import SimpleNamespace
    from repro.telemetry.events import bus
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=1)
    stack = sim.run(until=deploy_fabric(testbed, OnServeConfig(),
                                        replicas=3, self_healing=True,
                                        lease_ttl=12.0,
                                        lease_check_interval=3.0))
    hot = [n for n in stack.router.replicas()
           if n != stack.onserves[0].replica][0]
    tower = SimpleNamespace(detector=SimpleNamespace(hot=hot))
    stack.enable_remediation(tower, cooldown=60.0)
    bus(sim).emit("slo.burn", layer="telemetry", slo="availability")
    bus(sim).emit("slo.burn", layer="telemetry", slo="availability")
    sim.run(until=sim.timeout(5.0))
    # One remediation despite two burn alerts (cooldown), and the hot
    # replica came back: drained out of the ring, then restarted in.
    assert [(name, action) for _, name, action
            in stack.remediations] == [(hot, "drain_restart")]
    assert hot in stack.router.replicas()
    reasons = [str(ev.get("reason", ""))
               for ev in bus(sim).events("router.rebalance")
               if ev.get("replica") == hot]
    assert "drain:slo_burn" in reasons and "revive" in reasons
    assert bus(sim).first("fabric.remediate") is not None
    # Detached, further burns do nothing.
    stack.disable_remediation()
    sim.run(until=sim.timeout(120.0))
    bus(sim).emit("slo.burn", layer="telemetry", slo="availability")
    sim.run(until=sim.timeout(5.0))
    assert len(stack.remediations) == 1
    stack.stop_self_healing()


def test_remediation_never_recycles_the_last_replica():
    from types import SimpleNamespace
    from repro.telemetry.events import bus
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=1)
    stack = sim.run(until=deploy_fabric(testbed, OnServeConfig(),
                                        replicas=2, self_healing=True))
    survivor, other = stack.router.replicas()[0], \
        stack.router.replicas()[1]
    stack.crash_replica(other)
    sim.run(until=sim.timeout(30.0))   # watchdog buries the crash
    assert stack.router.replicas() == [survivor]
    tower = SimpleNamespace(detector=SimpleNamespace(hot=survivor))
    stack.enable_remediation(tower, cooldown=1.0)
    bus(sim).emit("slo.burn", layer="telemetry", slo="availability")
    sim.run(until=sim.timeout(5.0))
    assert stack.remediations == []
    assert stack.router.replicas() == [survivor]
    stack.stop_self_healing()
