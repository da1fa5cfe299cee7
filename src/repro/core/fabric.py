"""The one deployment routine: N stateless onServe appliances.

:func:`deploy_fabric` is the on-demand story of §V — build the appliance
image, deploy it, wire every component, enrol the grid identity — for
one appliance or a sharded deployment of N (DESIGN.md §11):

* **N replica hosts** cloned from the testbed's appliance host, each
  with its own thin WAN uplink to the grid and its own LAN links, each
  running the full software stack (SOAP container, Cyberaide agent,
  :class:`~repro.core.onserve.OnServe`, UDDI inquiry + management
  endpoints),
* **one shared DB tier** (:class:`~repro.db.dbmanager.DbManager` on the
  primary appliance host) holding the executables, the invocation
  history, the :class:`~repro.core.registry.ServiceStateStore` tables
  that make the replicas stateless and, with ``config.notify``, the
  durable job-state notification queue every replica reads,
* **one shared UDDI registry** — still the placement source of truth
  clients discover through, and
* **one request router** fronting the replicas
  (:class:`~repro.ws.router.RequestRouter`): generated services publish
  the *router* endpoint, so every invocation is hash-routed with
  breaker-aware skip and least-loaded spill.

:func:`~repro.core.onserve.deploy_onserve` is ``replicas=1`` with the
router off: the router is merely *constructed*, disabled, so the
single-appliance timeline stays byte-identical to the paper figures,
which the golden tests assert.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.appliance.deploy import DeployedAppliance, deploy_image
from repro.appliance.image import ImageBuilder, ONSERVE_PACKAGES
from repro.core.onserve import OnServe, OnServeConfig
from repro.core.registry import ServiceStateStore
from repro.cyberaide.agent import AgentConfig, CyberaideAgent
from repro.db.dbmanager import DbManager, DbTierConfig
from repro.errors import OnServeError
from repro.grid.testbed import Testbed
from repro.hardware.host import Host, HostSpec
from repro.simkernel.events import Event
from repro.simkernel.process import Interrupt, Process
from repro.telemetry.events import bus
from repro.units import Gbps
from repro.ws.client import WsClient
from repro.ws.router import RequestRouter
from repro.ws.server import SoapFabric, SoapServer
from repro.ws.uddi import UddiRegistry

__all__ = ["OnServeStack", "deploy_fabric"]


class OnServeStack:
    """Everything :func:`deploy_fabric` brings up, in one handle.

    ``soap_server``, ``onserve``, ``agent`` and ``appliance`` refer to
    the *primary* replica, so every single-appliance consumer (portal,
    scenarios, tests) reads a one-replica fabric exactly like the lone
    appliance it is; ``onserves``, ``router`` and ``store`` are the
    fabric surfaces.
    """

    def __init__(self, testbed: Testbed, appliance: DeployedAppliance,
                 fabric: SoapFabric, uddi: UddiRegistry,
                 dbmanager: DbManager, onserves: List[OnServe],
                 router: RequestRouter, store: ServiceStateStore,
                 user_clients: List[WsClient]):
        self.testbed = testbed
        self.sim = testbed.sim
        self.appliance = appliance
        self.fabric = fabric
        self.uddi = uddi
        self.dbmanager = dbmanager
        #: Every replica's OnServe, primary first.
        self.onserves = onserves
        self.onserve = onserves[0]
        self.soap_server = self.onserve.soap_server
        self.agent = self.onserve.agent
        self.router = router
        self.store = store
        self.user_clients = user_clients
        self._client_caches: List = []
        # -- self-healing plane (inert until start_self_healing) ------
        self.self_healing = False
        self.heartbeat_interval = 5.0
        self._heartbeats: Dict[str, Process] = {}
        self._unsubscribe_remediation = None
        self._last_remediation = None
        #: (ts, replica, action) remediation log.
        self.remediations: List = []

    @property
    def appliance_host(self) -> Host:
        return self.testbed.appliance_host

    @property
    def portal(self):
        from repro.core.portal import CyberaidePortal
        if not hasattr(self, "_portal"):
            self._portal = CyberaidePortal(self.onserve)
        return self._portal

    @property
    def replica_hosts(self) -> List[Host]:
        return [o.host for o in self.onserves]

    def onserve_for(self, name: str) -> Optional[OnServe]:
        for onserve in self.onserves:
            if onserve.replica == name:
                return onserve
        return None

    # -- self-healing: leases, crash, restart, drain ------------------------

    def start_self_healing(self,
                           heartbeat_interval: Optional[float] = None
                           ) -> "OnServeStack":
        """Arm the self-healing plane: leases + membership watchdog.

        Every replica starts a heartbeat process renewing its lease in
        the shared membership table every ``heartbeat_interval``
        (default: a third of the router's ``lease_ttl``, so two beats
        can be lost before the lease lapses), and the router starts the
        lease watchdog that declares lapsed replicas dead.  Requires a
        router constructed with ``self_healing=True`` and a store.
        """
        if self.self_healing:
            return self
        if not self.router.self_healing or self.router.store is None:
            raise OnServeError("self-healing needs a router built with "
                               "self_healing=True and a state store")
        self.heartbeat_interval = (heartbeat_interval
                                   or self.router.lease_ttl / 3.0)
        self.self_healing = True
        for onserve in self.onserves:
            self._start_heartbeat(onserve.replica)
        self.router.start_membership_watch()
        return self

    def stop_self_healing(self) -> None:
        for name, proc in list(self._heartbeats.items()):
            if proc.is_alive:
                proc.interrupt("stop")
        self._heartbeats.clear()
        self.router.stop_membership_watch()
        self.disable_remediation()
        self.self_healing = False

    def _start_heartbeat(self, name: str) -> None:
        self._heartbeats[name] = self.sim.process(
            self._heartbeat(name), name=f"fabric:heartbeat:{name}")

    def _heartbeat(self, name: str) -> Generator[Event, None, None]:
        # Renew-then-sleep: the lease is valid from the first beat, and
        # a killed heartbeat simply stops renewing — the lease lapses
        # on its own and the watchdog declares the death.
        try:
            while True:
                self.store.renew_member(
                    name, self.sim.now + self.router.lease_ttl)
                yield self.sim.timeout(self.heartbeat_interval,
                                       name=f"fabric:heartbeat:{name}")
        except Interrupt:
            return

    def crash_replica(self, name: str) -> int:
        """Kill replica *name* abruptly (fail-stop, no goodbye).

        Models a process crash: the replica refuses new connections,
        its heartbeat stops renewing the lease, and every request in
        flight against it dies mid-exchange (the router's healing
        transport fails those over).  The *router* is not told — it
        must detect the death through transport faults or lease
        expiry, which is exactly what the chaos scenario measures.
        Returns how many in-flight requests were killed.
        """
        replica = self.router.replica_handle(name)
        replica.crashed = True
        heartbeat = self._heartbeats.pop(name, None)
        if heartbeat is not None and heartbeat.is_alive:
            heartbeat.interrupt("crash")
        killed = self.router.kill_inflight(name)
        bus(self.sim).emit("fabric.replica_crash", layer="core",
                           replica=name, inflight_killed=killed)
        return killed

    def restart_replica(self, name: str) -> None:
        """Bring a crashed/drained replica back into service.

        The replica is stateless — everything it needs lives in the
        shared DB tier — so restart is: clear the crash flag, rejoin
        the ring, close the breaker, and resume heartbeating.
        """
        self.router.revive_replica(name)
        if self.self_healing:
            self.store.renew_member(name,
                                    self.sim.now + self.router.lease_ttl)
            if name not in self._heartbeats:
                self._start_heartbeat(name)
        bus(self.sim).emit("fabric.replica_restart", layer="core",
                           replica=name)

    def drain_replica(self, name: str, reason: str = "admin") -> Process:
        """Gracefully remove *name*: stop new routes, finish in-flight.

        Returns the drain process; its completion means the replica is
        out of the ring with zero requests in flight, its membership
        lease released and its agent session lease dropped.
        """
        def op() -> Generator[Event, None, None]:
            heartbeat = self._heartbeats.pop(name, None)
            if heartbeat is not None and heartbeat.is_alive:
                heartbeat.interrupt("drain")
            if self.store.member(name) is not None:
                self.store.mark_draining(name)
            drain = self.router.remove_replica(name, reason=reason,
                                               drain=True)
            yield drain
            onserve = self.onserve_for(name)
            if onserve is not None:
                self.store.drop_lease(name, onserve.config.grid_username)

        return self.sim.process(op(), name=f"fabric:drain:{name}")

    # -- SLO-driven remediation ---------------------------------------------

    def enable_remediation(self, tower, cooldown: float = 120.0) -> None:
        """Drain-and-restart the hot replica when the SLO burns.

        Subscribes to ``slo.burn``: when a burn alert fires and the
        control tower's hot-shard detector has a currently-flagged
        replica, that replica is drained (in-flight finishes, no loss)
        and restarted — the simulated equivalent of recycling a sick
        process.  One remediation per *cooldown* seconds, never against
        the last live replica.  This is the one deliberately *active*
        bus subscriber in the stack: it exists to close the loop from
        observation to action, so it is opt-in and detachable.
        """
        if self._unsubscribe_remediation is not None:
            return

        def on_burn(event) -> None:
            if not self.self_healing:
                return
            now = self.sim.now
            if (self._last_remediation is not None
                    and now - self._last_remediation < cooldown):
                return
            detector = getattr(tower, "detector", None)
            target = detector.hot if detector is not None else None
            if target is None or target not in self.router.replicas():
                return
            if len(self.router.replicas()) <= 1:
                return
            self._last_remediation = now
            self.remediations.append((now, target, "drain_restart"))
            bus(self.sim).emit("fabric.remediate", layer="core",
                               replica=target, trigger="slo.burn")
            self.sim.process(self._remediate(target),
                             name=f"fabric:remediate:{target}")

        self._unsubscribe_remediation = bus(self.sim).subscribe(
            on_burn, kinds=("slo.burn",))

    def disable_remediation(self) -> None:
        if self._unsubscribe_remediation is not None:
            self._unsubscribe_remediation()
            self._unsubscribe_remediation = None

    def _remediate(self, name: str) -> Generator[Event, None, None]:
        yield self.drain_replica(name, reason="slo_burn")
        self.restart_replica(name)

    def inquiry_endpoint(self) -> str:
        """Where clients reach the UDDI inquiry service: through the
        router when it is enabled (discovery spreads over the replicas
        too), else the primary replica's own endpoint."""
        from repro.ws.uddi_service import UddiInquiryService
        name = UddiInquiryService.SERVICE_NAME
        if self.router.enabled:
            return self.router.endpoint_for(name)
        return self.soap_server.endpoint_for(name)

    def attach_control_tower(self, specs=(), rules=None,
                             profiler: bool = False, **detector_kwargs):
        """Attach the observability control tower to this fabric.

        Bundles the SLO tracker (over *specs* / *rules*), the
        per-replica fleet rollup, the hot-shard detector scoring load
        against the router's hash ring, and — with ``profiler=True`` —
        the wall-clock kernel profiler.  Pure observation: the tower
        subscribes to the bus and hooks wall-clock timers only, so the
        simulated timeline is untouched (the golden guard attaches one
        to prove it).  Returns the :class:`~repro.telemetry.fleet.
        ControlTower`; call ``close()`` to detach.
        """
        from repro.telemetry.fleet import ControlTower
        from repro.telemetry.profiler import KernelProfiler
        prof = KernelProfiler(self.sim) if profiler else None
        return ControlTower(self.sim, specs=specs, rules=rules,
                            router=self.router, profiler=prof,
                            **detector_kwargs)

    def enable_client_caches(self, ttl: Optional[float] = None,
                             enabled: bool = True) -> List:
        """Attach a discovery/WSDL/stub cache to every user client.

        Each cache is wired into every replica's container undeploy hook
        and onServe republish hook, so an undeployed or replaced service
        is dropped from every client immediately, whichever replica
        undeploys or republishes it — the invalidation contract of
        DESIGN.md §9.  Returns the caches (one per client).
        ``enabled=False`` attaches inert caches, which the golden-series
        guard uses to prove attachment alone cannot perturb a run.

        Idempotent: calling it again *replaces* the previous caches —
        the old ones are detached from every client and every hook, so
        repeated enabling can never stack stale caches or double-fire
        invalidation listeners.
        """
        from repro.ws.cache import ClientCache
        for cache in self._client_caches:
            for onserve in self.onserves:
                onserve.soap_server.remove_undeploy_listener(
                    cache.invalidate_service)
                onserve.remove_republish_listener(cache.invalidate_service)
        kwargs = {} if ttl is None else {"ttl": ttl}
        self._client_caches = []
        for client in self.user_clients:
            cache = ClientCache(self.sim, enabled=enabled, **kwargs)
            client.cache = cache
            for onserve in self.onserves:
                onserve.soap_server.on_undeploy(cache.invalidate_service)
                onserve.on_republish(cache.invalidate_service)
            self._client_caches.append(cache)
        return self._client_caches


def _link_between(testbed: Testbed, a: str, b: str):
    for link in testbed.network.links():
        if {link.a, link.b} == {a, b}:
            return link
    return None


def deploy_fabric(testbed: Testbed,
                  config: Optional[OnServeConfig] = None,
                  dbmanager: Optional[DbManager] = None,
                  replicas: int = 1,
                  router: Optional[bool] = None,
                  spill_threshold: int = 4,
                  router_spec: Optional[HostSpec] = None,
                  self_healing: bool = False,
                  lease_ttl: float = 15.0,
                  lease_check_interval: float = 5.0,
                  fault_threshold: int = 2,
                  shed_limit: Optional[int] = None,
                  backpressure_threshold: Optional[int] = None) -> Process:
    """Deploy onServe onto *testbed* as *replicas* appliances (a sim process).

    The process-event's value is an :class:`OnServeStack`.  This is the
    one deployment routine: ``deploy_onserve`` is ``replicas=1`` with
    the router off, in which case the router is constructed on the
    appliance host, disabled — it owns no endpoint and routes nothing —
    and every service publishes the appliance's own endpoint.
    ``router=None`` enables the router automatically when ``replicas >
    1``.  Passing a *dbmanager* (e.g. one recovered with
    :meth:`~repro.db.dbmanager.DbManager.recover_from_crash`) redeploys
    over existing data: the primary rebuilds and republishes every
    stored executable's service.

    With ``self_healing=True`` (routed deployments) the stack arms the
    lease/failover plane after deployment: replicas heartbeat their
    membership leases into the shared store, the router watches for
    expiry, crashed replicas fail over with idempotent retry, and the
    ``shed_limit``/``backpressure_threshold`` overload ladder guards
    admission (DESIGN.md §13).
    """
    if replicas < 1:
        raise OnServeError("replicas must be >= 1")
    config = config or OnServeConfig()
    router_on = (replicas > 1) if router is None else bool(router)
    if self_healing and not router_on:
        raise OnServeError("self-healing needs the router enabled")
    sim = testbed.sim

    def op() -> Generator[Event, None, OnServeStack]:
        network = testbed.network
        primary = testbed.appliance_host

        # Replica hosts clone the primary's hardware and connectivity:
        # each gets its own thin WAN uplink (the per-appliance 85 KB/s
        # pipe is exactly what sharding multiplies) and LAN links to the
        # users and the router.  Multi-hop through the primary would
        # funnel everything back through one uplink.
        uplink = _link_between(testbed, primary.name, "wan-core")
        lan = (_link_between(testbed, testbed.user_hosts[0].name,
                             primary.name)
               if testbed.user_hosts else None)
        lan_bw = lan.bandwidth if lan is not None else Gbps(1)
        lan_lat = lan.latency if lan is not None else 0.0005
        hosts: List[Host] = [primary]
        for i in range(2, replicas + 1):
            host = Host(sim, f"appliance{i:02d}", network, primary.spec)
            network.connect(host.name, "wan-core",
                            bandwidth=uplink.bandwidth,
                            latency=uplink.latency)
            for user in testbed.user_hosts:
                network.connect(user.name, host.name, bandwidth=lan_bw,
                                latency=lan_lat)
            hosts.append(host)
        # Only an enabled router gets a host of its own; a disabled one
        # sits on the primary, off the network and out of the fabric.
        router_host = primary
        if router_on:
            router_host = Host(sim, "router", network,
                               router_spec or HostSpec(cores=4))
            for peer in hosts + testbed.user_hosts:
                network.connect(router_host.name, peer.name,
                                bandwidth=lan_bw, latency=lan_lat)

        # 1. Build the appliance image (the rBuilder step) and deploy it
        #    on demand onto every replica host in parallel.  A lone
        #    appliance waits on its own deploy directly: a composite
        #    event would add one event to the paper-figure timelines.
        builder = ImageBuilder()
        for package in ONSERVE_PACKAGES():
            builder.provide(package)
        image = builder.build("cyberaide-onserve", ["cyberaide-onserve"])
        deploys = [deploy_image(image, host) for host in hosts]
        yield deploys[0] if replicas == 1 else sim.all_of(deploys)

        # 2. The shared tiers: endpoint fabric, UDDI, DB + state store.
        fabric = SoapFabric()
        uddi = UddiRegistry()
        db = dbmanager if dbmanager is not None else DbManager(
            primary,
            tier=DbTierConfig(mvcc=config.db_mvcc,
                              serialize=config.db_serialize,
                              chunk_bytes=config.db_chunk_bytes,
                              replicas=config.db_replicas,
                              replica_lag=config.db_replica_lag))
        store = ServiceStateStore(db.db, read_router=db.read_router)

        # 3. Enrol the grid identity (certificate -> MyProxy ->
        #    gridmaps), once: replicas share the onserve principal.
        testbed.new_grid_identity(config.grid_username,
                                  config.grid_passphrase)

        # 4. Per-replica software stack: the agent, onServe, and the
        #    registry's inquiry API and the management API as web
        #    services of their own (jUDDI inquiry / portal management).
        from repro.core.management import ManagementService
        from repro.ws.uddi_service import UddiInquiryService
        onserves: List[OnServe] = []
        for host in hosts:
            soap_server = SoapServer(host, fabric)
            agent = CyberaideAgent(
                host, testbed,
                AgentConfig(status_supported=config.status_supported,
                            session_reuse=config.datapath,
                            ftp_idle_timeout=config.ftp_session_idle))
            soap_server.deploy(agent.service_description(), agent.handler)
            onserve = OnServe(host, soap_server, fabric, uddi, db, agent,
                              config, store=store)
            inquiry = UddiInquiryService(uddi)
            soap_server.deploy(inquiry.service_description(),
                               inquiry.handler)
            management = ManagementService(onserve)
            soap_server.deploy(management.service_description(),
                               management.handler)
            onserves.append(onserve)

        if config.notify:
            # Push path: one durable notification queue over the shared
            # DB tier, read by every replica, each gatekeeper attached
            # with its site's capability (heterogeneous on purpose —
            # sites outside notify_sites keep the poll ladder).
            from repro.grid.notify import NotifyQueue
            queue = NotifyQueue(sim, db.db,
                                propagation=config.notify_propagation,
                                read_router=db.read_router)
            for name, gatekeeper in testbed.gatekeepers.items():
                capable = ("*" in config.notify_sites
                           or name in config.notify_sites)
                gatekeeper.attach_notify(queue, capable=capable)
            for onserve in onserves:
                onserve.notify_queue = queue

        # 5. The router endpoint over all replicas.
        request_router = RequestRouter(
            router_host, fabric, enabled=router_on,
            spill_threshold=spill_threshold,
            breaker_failure_threshold=config.breaker_failure_threshold,
            store=store if self_healing else None,
            self_healing=self_healing,
            lease_ttl=lease_ttl,
            lease_check_interval=lease_check_interval,
            fault_threshold=fault_threshold,
            shed_limit=shed_limit,
            backpressure_threshold=backpressure_threshold)
        for onserve in onserves:
            request_router.add_replica(onserve.replica, onserve.soap_server,
                                       onserve)
            onserve.router = request_router

        user_clients = [WsClient(host, fabric)
                        for host in testbed.user_hosts]
        if dbmanager is not None:
            # Redeployment over recovered data: the primary rebuilds the
            # published surface; other replicas materialize on demand.
            yield onserves[0].restore_services()
        stack = OnServeStack(testbed, deploys[0].value, fabric, uddi, db,
                             onserves, request_router, store, user_clients)
        if self_healing:
            stack.start_self_healing()
        return stack

    return sim.process(op(), name="deploy-fabric")
