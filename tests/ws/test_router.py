"""Unit tests for the request router and its consistent-hash ring."""

import pytest

from repro.errors import ReplicaDown, SoapFault, WsError
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.telemetry.gauges import gauges
from repro.ws.router import HashRing, RequestRouter
from repro.ws.server import SoapFabric


# -- the ring ---------------------------------------------------------------

KEYS = [f"Service{i:03d}" for i in range(200)]


def ring_with(nodes, vnodes=64):
    ring = HashRing(vnodes=vnodes)
    for node in nodes:
        ring.add(node)
    return ring


def test_ring_owner_is_preference_head():
    ring = ring_with([f"r{i}" for i in range(1, 9)])
    for key in KEYS:
        order = ring.preference(key)
        assert order[0] == ring.owner(key)
        assert sorted(order) == ring.nodes()


def test_ring_leave_moves_only_departed_nodes_keys():
    nodes = [f"r{i}" for i in range(1, 9)]
    ring = ring_with(nodes)
    before = {key: ring.owner(key) for key in KEYS}
    ring.remove("r3")
    moved = [key for key in KEYS if ring.owner(key) != before[key]]
    # Consistent hashing: exactly the departed node's keys remap.
    assert set(moved) == {key for key in KEYS if before[key] == "r3"}
    # ...and that is a small fraction of the keyspace (~1/8 expected).
    assert len(moved) <= len(KEYS) // 2


def test_ring_join_steals_only_what_it_now_owns():
    ring = ring_with([f"r{i}" for i in range(1, 9)])
    before = {key: ring.owner(key) for key in KEYS}
    ring.add("r9")
    moved = [key for key in KEYS if ring.owner(key) != before[key]]
    assert all(ring.owner(key) == "r9" for key in moved)
    assert 0 < len(moved) <= len(KEYS) // 2


def test_ring_spread_is_roughly_uniform():
    ring = ring_with([f"r{i}" for i in range(1, 5)])
    per_node = {n: 0 for n in ring.nodes()}
    for key in KEYS:
        per_node[ring.owner(key)] += 1
    assert all(count > 0 for count in per_node.values())


def test_ring_rejects_duplicates_and_unknown():
    ring = ring_with(["a"])
    with pytest.raises(WsError):
        ring.add("a")
    with pytest.raises(WsError):
        ring.remove("ghost")
    with pytest.raises(WsError):
        HashRing(vnodes=0)


def test_empty_ring_has_no_owner():
    ring = HashRing()
    assert ring.preference("AnyService") == []
    with pytest.raises(WsError):
        ring.owner("AnyService")


# -- routing decisions ------------------------------------------------------

class _StubServer:
    """Stands in for a SoapServer in pure choose() tests."""


def make_router(n_replicas=3, **kw):
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, "router", net, HostSpec(cores=4))
    router = RequestRouter(host, **kw)
    for i in range(1, n_replicas + 1):
        router.add_replica(f"replica{i}", _StubServer())
    return sim, router


def test_choose_prefers_hash_owner_when_idle():
    sim, router = make_router()
    owner = router.ring.owner("HelloService")
    assert router.choose("HelloService").name == owner
    assert router.rebalances == 0


def test_choose_spills_to_least_loaded_under_skew():
    sim, router = make_router(spill_threshold=2)
    order = router.ring.preference("HelloService")
    owner, second, third = order
    router._inflight[owner] = 2   # at threshold: must spill
    router._inflight[second] = 1
    router._inflight[third] = 0
    assert router.choose("HelloService").name == third
    assert router.rebalances == 1
    # Ties break by ring preference, keeping the decision deterministic.
    router._inflight[third] = 1
    assert router.choose("HelloService").name == second


def test_choose_skips_open_breaker():
    sim, router = make_router(breaker_failure_threshold=2)
    order = router.ring.preference("HelloService")
    owner = order[0]
    for _ in range(2):
        router.breakers.failure(owner)
    chosen = router.choose("HelloService")
    assert chosen.name == order[1]
    assert router.rebalances == 1


def test_choose_raises_when_all_circuits_open():
    sim, router = make_router(n_replicas=2, breaker_failure_threshold=1)
    for name in router.replicas():
        router.breakers.failure(name)
    with pytest.raises(WsError):
        router.choose("HelloService")


def test_membership_bookkeeping():
    sim, router = make_router(n_replicas=2)
    assert router.replicas() == ["replica1", "replica2"]
    with pytest.raises(WsError):
        router.add_replica("replica1", _StubServer())
    router.remove_replica("replica2")
    assert router.replicas() == ["replica1"]
    with pytest.raises(WsError):
        router.remove_replica("replica2")
    assert len(router.ring) == 1


def test_remove_replica_clears_gauges_and_emits_rebalance():
    # The ghost-replica fix: removal must zero the removed replica's
    # inflight gauge, shed its share of the aggregate queue gauge, and
    # announce the membership change on the bus.
    sim, router = make_router(n_replicas=3)
    board = gauges(sim)
    router._admit("replica2")
    router._admit("replica2")
    router._admit("replica1")
    assert board.gauge("router.queue", unit="reqs").current == 3
    router.remove_replica("replica2", reason="test")
    assert board.gauge("router.queue", unit="reqs").current == 1
    assert board.gauge("router.inflight", unit="reqs",
                       labels={"replica": "replica2"}).current == 0
    events = bus(sim).events("router.rebalance")
    assert any(ev.get("replica") == "replica2"
               and ev.get("reason") == "remove:test" for ev in events)
    # A late release for the removed replica must not go negative.
    router._release("replica2")
    assert board.gauge("router.queue", unit="reqs").current == 1
    router._release("replica1")
    assert board.gauge("router.queue", unit="reqs").current == 0


# -- satellite: HashRing.remove coverage ------------------------------------

def test_ring_remove_preference_excludes_removed_node():
    ring = ring_with([f"r{i}" for i in range(1, 6)])
    ring.remove("r2")
    for key in KEYS:
        order = ring.preference(key)
        assert "r2" not in order
        assert sorted(order) == ring.nodes()


def test_ring_remove_keeps_ownership_normalized():
    ring = ring_with([f"r{i}" for i in range(1, 9)])
    for victim in ("r4", "r7"):
        ring.remove(victim)
        ownership = ring.ownership()
        assert victim not in ownership
        assert sum(ownership.values()) == pytest.approx(1.0)
        assert all(arc > 0.0 for arc in ownership.values())


def test_ring_remove_then_readd_is_deterministic():
    ring = ring_with([f"r{i}" for i in range(1, 6)])
    before_points = list(ring._points)
    before_owners = {key: ring.owner(key) for key in KEYS}
    ring.remove("r3")
    ring.add("r3")
    assert list(ring._points) == before_points
    assert {key: ring.owner(key) for key in KEYS} == before_owners


def test_disabled_router_owns_no_endpoint():
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, "router", net, HostSpec(cores=4))
    fabric = SoapFabric()
    router = RequestRouter(host, fabric, enabled=False)
    router.add_replica("replica1", _StubServer())
    with pytest.raises(WsError):
        fabric.resolve(router.endpoint_for("HelloService"))


def test_enabled_router_is_a_fabric_target():
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, "router", net, HostSpec(cores=4))
    fabric = SoapFabric()
    router = RequestRouter(host, fabric, enabled=True)
    server, service = fabric.resolve(router.endpoint_for("HelloService"))
    assert server is router
    assert service == "HelloService"


# -- end-to-end determinism -------------------------------------------------

def _routed_run():
    from repro.core.fabric import deploy_fabric
    from repro.core.invocation import discover_and_invoke
    from repro.core.onserve import OnServeConfig
    from repro.grid.testbed import build_testbed
    from repro.telemetry.events import bus
    from repro.units import KB
    from repro.workloads.executables import make_payload

    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=4)
    stack = sim.run(until=deploy_fabric(testbed, OnServeConfig(),
                                        replicas=2, spill_threshold=1))
    payload = make_payload("fixed", size=int(KB(32)), runtime="3",
                           output_bytes="64")
    sim.run(until=stack.portal.upload_and_generate(
        testbed.user_hosts[0], "route.bin", payload))
    procs = [discover_and_invoke(stack, client, "Route%")
             for client in stack.user_clients]
    sim.run(until=sim.all_of(procs))
    return (sim.now, stack.router.requests_routed,
            stack.router.rebalances, dict(bus(sim).counts()))


def test_routed_runs_are_trace_deterministic():
    assert _routed_run() == _routed_run()


def test_ring_ownership_arcs_sum_to_one_and_cover_all_nodes():
    nodes = [f"r{i}" for i in range(1, 6)]
    ring = ring_with(nodes)
    ownership = ring.ownership()
    assert sorted(ownership) == sorted(nodes)
    assert sum(ownership.values()) == pytest.approx(1.0)
    assert all(arc > 0.0 for arc in ownership.values())
    # 64 vnodes keep arcs roughly even; nothing owns half the ring.
    assert max(ownership.values()) < 0.5


def test_ring_ownership_tracks_membership_and_empty_ring():
    assert HashRing().ownership() == {}
    ring = ring_with(["a", "b"])
    before = ring.ownership()
    ring.remove("b")
    assert ring.ownership() == {"a": pytest.approx(1.0)}
    ring.add("b")
    after = ring.ownership()
    assert after.keys() == before.keys()
    for node in before:
        assert after[node] == pytest.approx(before[node])


def test_ring_ownership_matches_sampled_owner_frequency():
    ring = ring_with([f"r{i}" for i in range(1, 5)])
    ownership = ring.ownership()
    counts = {}
    for key in KEYS:
        owner = ring.owner(key)
        counts[owner] = counts.get(owner, 0) + 1
    for node, arc in ownership.items():
        # 200 sampled keys land within a loose band of the exact arcs.
        assert abs(counts.get(node, 0) / len(KEYS) - arc) < 0.15


@pytest.mark.parametrize("self_healing", [False, True])
def test_no_live_replica_relays_a_typed_replica_down(self_healing):
    """Every circuit open: the client gets a relayed ReplicaDown fault.

    Healing or not, the router puts a fault envelope on the wire and
    raises a typed :class:`SoapFault` whose root cause is ReplicaDown.
    """
    from repro.core.fabric import deploy_fabric
    from repro.core.onserve import OnServeConfig
    from repro.grid.testbed import build_testbed
    from repro.ws.soap import SoapEnvelope

    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_users=1)
    stack = sim.run(until=deploy_fabric(testbed, OnServeConfig(),
                                        replicas=2, router=True,
                                        self_healing=self_healing))
    router = stack.router
    for name in router.replicas():
        while router.breakers.allow(name):
            router.breakers.failure(name)
    network = router.host.network
    sent_before = network.bytes_out(router.host.name)
    caught = []

    def call():
        try:
            yield from router.transport(testbed.user_hosts[0],
                                        "HelloService", "execute", {})
        except SoapFault as fault:
            caught.append(fault)

    sim.run(until=sim.process(call()))
    assert len(caught) == 1
    fault = caught[0]
    assert fault.root_cause == "ReplicaDown"
    assert isinstance(fault.__cause__, ReplicaDown)
    relayed = network.bytes_out(router.host.name) - sent_before
    assert relayed == SoapEnvelope.fault_response(fault).size()
    if self_healing:
        stack.stop_self_healing()
