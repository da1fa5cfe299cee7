"""The OnServe middleware facade and full-stack deployment.

:class:`OnServe` ties the appliance components together: the database
(executable storage), the service builder, the SOAP server, the UDDI
registry and the Cyberaide agent.  Its :meth:`~OnServe.generate_service`
implements §VII.A's "further treatment" (storage, service build,
publishing); the generated services themselves run
:class:`~repro.core.grid_service.GridServiceRuntime`.

:func:`deploy_onserve` is the on-demand story of §V for one appliance:
a one-replica :func:`~repro.core.fabric.deploy_fabric`, the single
routine that builds the image, deploys it, wires every component and
enrols the grid identity.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Generator, List, Optional

from repro.core.coalesce import SingleFlight
from repro.core.context import RequestContext, span
from repro.core.datastructures import (
    ExecutableRecord, GeneratedService, parse_params_spec, service_name_for,
)
from repro.core.grid_service import GridServiceRuntime
from repro.core.registry import ServiceStateStore
from repro.core.service_builder import ServiceBuilder
from repro.cyberaide.agent import CyberaideAgent
from repro.cyberaide.jobspec import staged_path_for
from repro.db.dbmanager import DbManager
from repro.errors import OnServeError, ServiceNotFound, UddiError, UploadError
from repro.grid.testbed import Testbed
from repro.hardware.host import Host
from repro.resilience.breaker import BreakerBoard
from repro.resilience.retry import RetryPolicy, retry_call
from repro.simkernel.events import Event
from repro.simkernel.process import Process
from repro.telemetry.events import bus
from repro.ws.client import WsClient, generate_stub
from repro.ws.server import SoapFabric, SoapServer
from repro.ws.uddi import UddiRegistry

__all__ = ["OnServeConfig", "OnServe", "deploy_onserve"]


class OnServeConfig:
    """All tunables of the middleware (ablation flags included)."""

    #: Fixed job-submission and portal costs: class constants, read
    #: through the instance like every tunable.
    default_queue = "normal"
    default_count = 1
    #: CPU for RSL generation + submission bookkeeping (2nd CPU peak).
    submit_cpu = 0.25
    portal_cpu_fixed = 0.15
    portal_cpu_per_mb = 0.01
    form_overhead_bytes = 2048
    #: Exponential backoff factor of the shared retry policy.
    retry_multiplier = 2.0

    def __init__(self,
                 grid_username: str = "onserve",
                 grid_passphrase: str = "appliance-secret",
                 poll_interval: float = 9.0,
                 watchdog_timeout: float = 6 * 3600.0,
                 default_walltime: int = 3600,
                 session_renewal: float = 3600.0,
                 double_write: bool = True,
                 upload_cache: bool = False,
                 status_supported: bool = False,
                 site_policy: str = "best",
                 retry_max_attempts: int = 3,
                 retry_base_delay: float = 2.0,
                 retry_max_delay: float = 30.0,
                 retry_jitter: float = 0.0,
                 breaker_failure_threshold: int = 3,
                 breaker_reset_timeout: float = 900.0,
                 failover_sites: int = 2,
                 coalesce: bool = False,
                 datapath: bool = False,
                 poll_min_interval: float = 2.0,
                 poll_max_interval: Optional[float] = None,
                 poll_backoff: float = 2.0,
                 ftp_session_idle: float = 600.0,
                 notify: bool = False,
                 notify_sites: tuple = ("*",),
                 notify_propagation: float = 0.5,
                 db_mvcc: bool = False,
                 db_serialize: bool = False,
                 db_chunk_bytes: int = 0,
                 db_replicas: int = 0,
                 db_replica_lag: float = 0.5):
        if site_policy not in ("best", "round_robin", "random"):
            raise OnServeError(f"unknown site policy {site_policy!r}")
        if failover_sites < 0:
            raise OnServeError("failover_sites must be >= 0")
        if poll_min_interval <= 0:
            raise OnServeError("poll_min_interval must be positive")
        if poll_backoff < 1.0:
            raise OnServeError("poll_backoff must be >= 1.0")
        if ftp_session_idle <= 0:
            raise OnServeError("ftp_session_idle must be positive")
        if notify_propagation <= 0:
            raise OnServeError("notify_propagation must be positive")
        self.grid_username = grid_username
        self.grid_passphrase = grid_passphrase
        #: Tentative-poll period (the "relative constant interval").
        self.poll_interval = poll_interval
        self.watchdog_timeout = watchdog_timeout
        self.default_walltime = default_walltime
        self.session_renewal = session_renewal
        #: Faithful flaw: uploads hit the disk twice (temp, then DB).
        #: False is the "may be improved" ablation (§VIII.D.3).
        self.double_write = double_write
        #: Faithful flaw: executables re-upload on every invocation.
        #: True caches staged files per site (ablation).
        self.upload_cache = upload_cache
        #: Faithful flaw: agent job status unavailable -> tentative
        #: output polling.  True is the clean-status ablation.
        self.status_supported = status_supported
        #: Resource selection: "best" (most free cores, the MDS
        #: ranking), "round_robin", or "random" (seeded).
        self.site_policy = site_policy
        #: Resilience: retry policy for transient agent/grid/db calls.
        self.retry_max_attempts = retry_max_attempts
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
        self.retry_jitter = retry_jitter
        #: Resilience: per-site circuit breakers.
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_reset_timeout = breaker_reset_timeout
        #: Resilience: how many *additional* sites one invocation may
        #: fail over to after its first choice (0 disables failover).
        self.failover_sites = failover_sites
        #: Hot-path optimisation: single-flight coalescing of concurrent
        #: invocations' shared work — agent logon, DB executable fetch,
        #: GridFTP staging per (site, path).  Off by default: the
        #: faithful timeline (and every golden figure) runs without it.
        self.coalesce = coalesce
        #: Grid data-path batching: GridFTP session reuse on the agent
        #: plus one per-site adaptive PollMux driving batched tentative
        #: polls instead of N fixed-interval per-job loops.  Off by
        #: default: the goldens pin the pay-per-operation timeline.
        self.datapath = datapath
        #: Adaptive poll interval: floor, cap (defaults to the faithful
        #: fixed interval) and exponential backoff factor.
        self.poll_min_interval = poll_min_interval
        self.poll_max_interval = (poll_max_interval
                                  if poll_max_interval is not None
                                  else poll_interval)
        if self.poll_max_interval < poll_min_interval:
            raise OnServeError(
                "poll_max_interval must be >= poll_min_interval")
        self.poll_backoff = poll_backoff
        #: GridFTP control-channel idle timeout (session reuse).
        self.ftp_session_idle = ftp_session_idle
        #: Push path (ROADMAP item 1): attach the durable notification
        #: queue and mark the listed sites' gatekeepers capable ("*"
        #: means every site).  Off by default: the goldens pin the
        #: poll-based timeline, and even when the queue is attached a
        #: site absent from ``notify_sites`` keeps using the ladder's
        #: lower rungs (PollMux / poll_until).
        self.notify = notify
        self.notify_sites = tuple(notify_sites)
        #: Event-propagation delay: gatekeeper -> appliance trip of one
        #: state-change message — the whole detection lag of the push
        #: path.
        self.notify_propagation = notify_propagation
        if db_chunk_bytes < 0:
            raise OnServeError("db_chunk_bytes must be >= 0")
        if db_replicas < 0:
            raise OnServeError("db_replicas must be >= 0")
        if db_replica_lag < 0:
            raise OnServeError("db_replica_lag must be >= 0")
        #: DB tier scale-out (ROADMAP item 2), all off by default so the
        #: goldens pin the single-connection whole-BLOB timeline.
        #: MVCC snapshot reads: executable fetches read the last
        #: committed row through a snapshot handle instead of blocking
        #: behind an in-flight store's open transaction.
        self.db_mvcc = db_mvcc
        #: Model DB connection contention: a store holds the FIFO
        #: connection lock (and its transaction) across its CPU/disk
        #: time; non-MVCC reads queue behind it.
        self.db_serialize = db_serialize
        #: Chunked BLOB streaming: fetch payloads in chunks of this many
        #: bytes (0 = whole-BLOB), bounding resident payload memory to
        #: two chunks per fetch.
        self.db_chunk_bytes = db_chunk_bytes
        #: WAL-shipping read replicas for discovery/WSDL/lease/notify
        #: replay reads, with a bounded-staleness read router.
        self.db_replicas = db_replicas
        #: Modeled WAL ship+apply lag per replica, seconds.
        self.db_replica_lag = db_replica_lag


class OnServe:
    """The middleware running inside the appliance."""

    BUSINESS_NAME = "Cyberaide onServe"

    def __init__(self, host: Host, soap_server: SoapServer,
                 fabric: SoapFabric, uddi: UddiRegistry,
                 dbmanager: DbManager, agent: CyberaideAgent,
                 config: Optional[OnServeConfig] = None, *,
                 store: ServiceStateStore):
        self.host = host
        self.sim = host.sim
        self.soap_server = soap_server
        self.fabric = fabric
        self.uddi = uddi
        self.dbmanager = dbmanager
        self.agent = agent
        self.config = config or OnServeConfig()
        self.builder = ServiceBuilder(host, soap_server)
        #: This replica's identity in the fabric (the host name).
        self.replica = host.name
        #: The replicated source of truth for service/deployment state,
        #: one store over the shared DB tier for every replica.
        self.store = store
        #: The request router ``deploy_fabric`` puts in front of this
        #: replica; when it is enabled, generated services publish the
        #: router endpoint.
        self.router = None
        #: Observability plane: middleware milestones become events.
        self.bus = bus(self.sim)
        #: Resilience plane: one shared retry policy + per-site breakers.
        self.retry_policy = RetryPolicy(
            max_attempts=self.config.retry_max_attempts,
            base_delay=self.config.retry_base_delay,
            multiplier=self.config.retry_multiplier,
            max_delay=self.config.retry_max_delay,
            jitter=self.config.retry_jitter)
        self.breakers = BreakerBoard(
            self.sim,
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout=self.config.breaker_reset_timeout)
        # The wsimport-generated client for the agent: onServe talks to
        # its own agent through the web-service interface (paper §VI,
        # "client" package), over the loopback path.
        wsdl = soap_server.wsdl(CyberaideAgent.SERVICE_NAME)
        self.agent_stub = generate_stub(wsdl)(WsClient(host, fabric))
        # UDDI anchors.  Replicas share one registry: the first replica
        # publishes the business entity and tModel, later ones reuse
        # them instead of minting duplicates.
        existing_biz = uddi.find_business(self.BUSINESS_NAME)
        self.business = existing_biz[0] if existing_biz else \
            uddi.save_business(self.BUSINESS_NAME, "SaaS on production grids")
        existing_tm = uddi.find_tmodel("onserve:grid-execution")
        self.tmodel = existing_tm[0] if existing_tm else uddi.save_tmodel(
            "onserve:grid-execution",
            overview_url=f"soap://{host.name}/onserve-docs")
        #: Write-through cache over the store: the services/runtimes this
        #: replica has locally materialized.  The store row is the truth;
        #: these dicts only memoize the live objects built from it.
        self.services: Dict[str, GeneratedService] = {}
        self.runtimes: Dict[str, GridServiceRuntime] = {}
        # Teardown hangs off the container's undeploy hook so UDDI and
        # the registries stay consistent no matter which path undeploys
        # a service (previously a direct SoapServer.undeploy left stale
        # bindingTemplates behind).
        soap_server.on_undeploy(self._on_soap_undeploy)
        # Cross-replica invalidation: another replica's undeploy or
        # replacement upload must drop this replica's cached objects.
        self.store.subscribe(self.replica, self._on_store_removed,
                             self._on_store_republished)
        #: Guard flag: the service currently being dropped *because* of
        #: a store fan-out (so the local undeploy hook does not recurse
        #: back into the store).
        self._cascading: Optional[str] = None
        #: In-flight materializations, one pending event per service
        #: (prevents two concurrent requests double-building a service).
        self._materializing: Dict[str, Event] = {}
        #: Listeners told when a replacement upload republishes a
        #: service in place (client caches hang invalidation off this).
        self._republish_listeners: List = []
        #: Single-flight coalescing of concurrent invocations' shared
        #: work (enabled by ``config.coalesce``; a no-op pass-through
        #: otherwise, so the default timeline is untouched).  Flight
        #: keys include ``self.replica`` so two replicas sharing one
        #: DbManager can never alias each other's flights.
        self.flights = SingleFlight(self.sim, enabled=self.config.coalesce)
        #: One adaptive batch-polling multiplexer per site (datapath
        #: mode); created lazily, schedules nothing while unused.
        self._poll_muxes: Dict[str, "PollMux"] = {}
        #: The durable job-state notification queue (push path), wired
        #: by ``deploy_fabric`` when ``config.notify`` is set — or
        #: attached externally (the golden guard attaches one with zero
        #: capable sites to prove it is byte-invisible).  The runtime
        #: takes the push rung only for sites the queue marks capable.
        self.notify_queue = None
        # Durable invocation history (queried by the management API).
        from repro.db.table import Column
        if "invocations" not in self.dbmanager.db.tables:
            self.dbmanager.db.create_table("invocations", [
                Column("id", "INT", primary_key=True),
                Column("service", "TEXT", nullable=False),
                Column("job_id", "TEXT"),
                Column("started_at", "REAL", nullable=False),
                Column("total", "REAL", nullable=False),
                Column("overhead", "REAL", nullable=False),
                Column("polls", "INT", nullable=False),
                Column("ok", "INT", nullable=False),
                Column("error", "TEXT"),
            ])
            self.dbmanager.db.create_index("invocations", "service", "hash")
        # Resume numbering after recovered history (appliance restarts);
        # the counters are fabric-wide, so this seeds only once.
        self.store.seed_counters()

    # -- upload cache (ablation support) ---------------------------------------

    @staticmethod
    def _digest(payload: bytes) -> str:
        return hashlib.sha256(payload).hexdigest()

    def is_staged(self, site: str, path: str, payload: bytes) -> bool:
        return self.store.staged_digest(site, path) == self._digest(payload)

    def mark_staged(self, site: str, path: str, payload: bytes) -> None:
        self.store.mark_staged(site, path, self._digest(payload),
                               self.replica)

    # -- §VII.A "further treatment" -----------------------------------------------

    def generate_service(self, name: str, payload: bytes,
                         description: str = "", params_spec: str = "",
                         uploaded_by: str = "portal",
                         ctx: Optional[RequestContext] = None) -> Process:
        """Store the executable, build+deploy its service, publish it.

        The process-event's value is the :class:`GeneratedService`.
        Re-uploading an existing executable *replaces the file* but keeps
        the already-published service (the paper's re-upload semantics).
        """

        def op() -> Generator[Event, None, GeneratedService]:
            if not payload:
                raise UploadError(f"executable {name!r} is empty")
            params = parse_params_spec(params_spec)

            service_name = service_name_for(name)
            existing = self._cached_or_stored(service_name)
            if existing is not None and existing.executable_name != name:
                # "hello.sh" and "hello.py" would both become
                # HelloService — refuse instead of silently aliasing.
                raise UploadError(
                    f"executable {name!r} would collide with service "
                    f"{service_name!r} (owned by "
                    f"{existing.executable_name!r})")

            # Storage: the executable lands in the database.  Transient
            # engine failures (stalled/aborted commits) are retried under
            # the shared policy; the first attempt is driven exactly as
            # the bare call would be.
            with span(ctx, "onserve:store", executable=name):
                yield from retry_call(
                    self.sim, self.retry_policy,
                    lambda: self.dbmanager.store_executable(
                        name, payload, description=description,
                        params_spec=params_spec),
                    ctx=ctx, label=f"db-store:{name}")

            record = ExecutableRecord(name, description, params,
                                      size=len(payload),
                                      uploaded_by=uploaded_by,
                                      uploaded_at=self.sim.now)

            if existing is not None:
                # Replacement upload: same service, new bytes.  The DB
                # row is already refreshed above; propagate the new
                # record to every in-memory surface too.
                self._refresh_replaced(existing, record)
                return existing

            # Service build + publication.
            service = yield from self._build_and_publish(record, ctx=ctx)
            return service

        return self.sim.process(op(), name=f"generate:{name}")

    def _build_and_publish(self, record: ExecutableRecord,
                           ctx: Optional[RequestContext] = None):
        """Build the service archive, deploy it, publish it in UDDI.

        A generator meant to be delegated to (``yield from``) inside a
        simulation process; returns the :class:`GeneratedService`.
        """
        service_name = service_name_for(record.name)
        runtime = GridServiceRuntime(self, record)
        with span(ctx, "onserve:build", service=service_name):
            endpoint, archive = yield self.builder.build_and_deploy(
                record, runtime.handler)
        # Behind an enabled router the *published* endpoint is the
        # router's — clients must route, not pin this replica.
        if self.router is not None and self.router.enabled:
            endpoint = self.router.endpoint_for(service_name)
        with span(ctx, "onserve:uddi-publish", service=service_name):
            yield self.host.compute(0.02, tag="uddi")
            entry = self.uddi.save_service(
                self.business.key, service_name, record.description)
            binding = self.uddi.save_binding(
                entry.key, access_point=endpoint,
                wsdl_location=endpoint + "?wsdl",
                tmodel_key=self.tmodel.key)
        service = GeneratedService(
            service_name=service_name,
            executable_name=record.name,
            endpoint=endpoint,
            wsdl_location=binding.wsdl_location,
            uddi_service_key=entry.key,
            uddi_binding_key=binding.key,
            archive_size=len(archive),
            created_at=self.sim.now)
        self.services[service_name] = service
        self.runtimes[service_name] = runtime
        self.store.put_record(service, self.replica)
        self.bus.emit("core.service_generated", layer="core",
                      request_id=ctx.request_id if ctx else None,
                      service=service_name, executable=record.name,
                      archive_bytes=len(archive))
        return service

    def _refresh_replaced(self, existing: GeneratedService,
                          record: ExecutableRecord) -> None:
        """Propagate a replacement upload beyond the database row.

        Pure bookkeeping (no simulated cost): the runtime's in-memory
        :class:`ExecutableRecord`, the container's deployed interface
        and the UDDI service description all refresh in place —
        previously only the DB row changed, so later invocations
        validated against the stale parameter spec and ``usage_report``
        showed the old size/description.  Staged grid copies of the old
        bytes are evicted by their *exact* staging path (suffix matching
        could evict another executable whose name path-suffixes this
        one), and republish listeners — client caches — drop the
        service.
        """
        service_name = existing.service_name
        try:
            self.uddi.get_service(existing.uddi_service_key).description = \
                record.description
        except UddiError:
            pass  # unpublished out-of-band; nothing to refresh
        self.store.evict_staged(staged_path_for(record.name))
        self.bus.emit("core.service_republished", layer="core",
                      service=service_name, executable=record.name,
                      size=record.size)
        self._refresh_local(service_name, record)
        # Every other replica refreshes its own copy the same way.
        self.store.record_republished(service_name, origin=self.replica)

    def _refresh_local(self, service_name: str,
                       record: ExecutableRecord) -> None:
        """Refresh this replica's copy of a replaced service in place.

        The one republish path, run by the origin replica and by every
        replica the store fans the replacement out to: the runtime's
        record and the container's deployed interface take the new
        record (a replica that never materialized the service has
        neither), then republish listeners — client caches — drop it.
        The runtime and its container entry stay deployed throughout,
        so an invocation already routed here dispatches to the fresh
        interface instead of faulting on a torn-down service.
        """
        runtime = self.runtimes.get(service_name)
        if runtime is not None:
            runtime.record = record
        try:
            self.soap_server.update_description(
                service_name, self.builder.description_for(record))
        except ServiceNotFound:
            pass  # not materialized on this replica; nothing deployed
        for listener in list(self._republish_listeners):
            listener(service_name)

    def on_republish(self, listener) -> None:
        """Register *listener(service_name)* to run after a replacement
        upload republishes a service in place (cache invalidation)."""
        self._republish_listeners.append(listener)

    def remove_republish_listener(self, listener) -> None:
        """Detach a republish listener (idempotent)."""
        try:
            self._republish_listeners.remove(listener)
        except ValueError:
            pass

    # -- shared agent session (single-flight across runtimes) -----------------

    def agent_session_expires(self) -> float:
        """When this replica's leased agent session expires (0 if none)."""
        lease = self.store.get_lease(self.replica,
                                     self.config.grid_username)
        return lease[1] if lease is not None else 0.0

    def ensure_agent_session(self, ctx: Optional[RequestContext] = None
                             ) -> Generator[Event, None, str]:
        """One appliance-wide agent session, logons coalesced.

        A generator meant to be delegated to (``yield from``) inside a
        simulation process.  While the leased session is fresh it is
        returned without any simulated work; otherwise exactly one
        MyProxy logon runs per expiry, no matter how many invocations
        (of however many services) race for it.  The lease lives in the
        store keyed by replica: each replica's own agent mints its own
        session, and flights on different replicas never coalesce.
        """
        cfg = self.config
        lease = self.store.get_lease(self.replica, cfg.grid_username)
        if lease is not None and self.sim.now < lease[1]:
            self.bus.emit("cache.hit", layer="core", cache="session",
                          key=cfg.grid_username)
            return lease[0]

        def logon() -> Generator[Event, None, str]:
            self.bus.emit("cache.miss", layer="core", cache="session",
                          key=cfg.grid_username)
            session = yield self.agent_stub.authenticate(
                username=cfg.grid_username,
                passphrase=cfg.grid_passphrase, ctx=ctx)
            self.store.put_lease(self.replica, cfg.grid_username, session,
                                 self.sim.now + cfg.session_renewal)
            return session

        return (yield from self.flights.do(
            ("agent-auth", self.replica, cfg.grid_username), logon,
            group="auth"))

    # -- per-site poll multiplexers (datapath mode) ---------------------------

    def poll_mux(self, site: str) -> "PollMux":
        """The (lazily created) batch-polling multiplexer for *site*.

        Its batch operation is one ``pollOutputs`` agent call covering
        every registered job; a per-job result is accepted once the
        stdout file exists (output ready) or the gatekeeper reports the
        job lost (flag ``E`` — the runtime turns that into
        :class:`~repro.errors.JobNotFound` for failover).  Creating the
        mux schedules nothing: an idle multiplexer cannot perturb a
        timeline, which is what the golden guard proves.
        """
        mux = self._poll_muxes.get(site)
        if mux is not None:
            return mux
        from repro.grid.poller import PollMux
        cfg = self.config

        def batch_poll(batch):
            def op() -> Generator[Event, None, Dict[str, Dict]]:
                session = yield from self.ensure_agent_session(None)
                encoded = ";".join(f"{key}|{token}" for key, token in batch)
                reply = yield self.agent_stub.pollOutputs(
                    session=session, site=site, jobs=encoded)
                results: Dict[str, Dict] = {}
                for item in reply.split(";"):
                    job_id, flag, nbytes = item.split("|")
                    results[job_id] = {"ready": flag == "1",
                                       "error": flag == "E",
                                       "nbytes": int(nbytes)}
                return results

            return self.sim.process(op(), name=f"pollmux-batch:{site}")

        mux = PollMux(
            self.sim, site, batch_poll,
            accept=lambda r: r is not None and (r["ready"] or r["error"]),
            min_interval=cfg.poll_min_interval,
            max_interval=cfg.poll_max_interval,
            backoff=cfg.poll_backoff)
        self._poll_muxes[site] = mux
        return mux

    def drop_agent_session(self, session: Optional[str]) -> None:
        """Forget the shared session (dead credential recovery hook)."""
        self.store.drop_lease(self.replica, self.config.grid_username,
                              session)

    def restore_services(self) -> Process:
        """Regenerate every service from the executables table.

        The appliance-restart story: after a crash, the database (WAL
        recovery) still holds every uploaded executable, but the SOAP
        container and UDDI registry start empty.  This replays the
        service build for each stored executable so the published
        surface comes back without any re-upload.  The process-event's
        value is the list of restored service names.
        """

        def op() -> Generator[Event, None, List[str]]:
            restored: List[str] = []
            for row in self.dbmanager.list_executables():
                service_name = service_name_for(row["name"])
                if service_name in self.services:
                    continue
                service = yield from self._build_and_publish(
                    self._record_from_row(row, uploaded_by="restore"))
                restored.append(service.service_name)
            return restored

        return self.sim.process(op(), name="restore-services")

    def new_job_tag(self) -> str:
        """A per-invocation tag unique across restarts (stdout naming).

        The sequence is fabric-wide (store-backed): two replicas must
        never mint the same tag, or their stdout files would alias on
        the grid and fool each other's outputReady probes.
        """
        return f"i{self.store.next_tag_seq():06d}"

    # -- invocation history ---------------------------------------------------

    def record_invocation(self, service_name: str, report) -> None:
        """Persist one execute() report (bookkeeping; no simulated cost —
        the row rides along the WAL writes already charged elsewhere)."""
        svc = self.services.get(service_name)
        if svc is not None:
            svc.invocations += 1
        self.store.bump_invocations(service_name)
        self.dbmanager.db.insert("invocations", [
            self.store.next_invocation_id(),
            service_name,
            report.job_id,
            report.started_at,
            report.total,
            report.overhead,
            report.polls,
            1 if report.ok else 0,
            report.error,
        ])
        self.bus.emit("core.invocation", layer="core",
                      service=service_name, job_id=report.job_id,
                      total=report.total, overhead=report.overhead,
                      polls=report.polls, ok=report.ok)

    def usage_report(self) -> List[Dict[str, object]]:
        """Per-service usage aggregates from the history table."""
        from repro.db.sql import execute_sql
        return execute_sql(
            self.dbmanager.db,
            "SELECT service, COUNT(*), SUM(ok), AVG(total), AVG(overhead), "
            "SUM(polls) FROM invocations GROUP BY service")

    # -- management ---------------------------------------------------------------

    def _cached_or_stored(self, service_name: str
                          ) -> Optional[GeneratedService]:
        """The local object if cached, else a view of the store row."""
        svc = self.services.get(service_name)
        if svc is not None:
            return svc
        row = self.store.get_record(service_name)
        if row is None:
            return None
        return ServiceStateStore.rehydrate(row)

    def get_service(self, service_name: str) -> GeneratedService:
        svc = self._cached_or_stored(service_name)
        if svc is None:
            raise ServiceNotFound(
                f"onServe has no service {service_name!r}")
        return svc

    def list_services(self) -> List[GeneratedService]:
        merged = {row["service_name"]: ServiceStateStore.rehydrate(row)
                  for row in self.store.all_records()}
        merged.update(self.services)
        return [merged[k] for k in sorted(merged)]

    # -- replica materialization (deploy on A, invoke on B) --------------------

    def ensure_local_service(self, service_name: str,
                             ctx: Optional[RequestContext] = None
                             ) -> Generator[Event, None, None]:
        """Make *service_name* servable by this replica's container.

        A generator meant to be delegated to (``yield from``).  On the
        hot path — the service is already deployed locally — it yields
        nothing and costs nothing.  Otherwise the service exists only as
        a store row (generated through another replica): rebuild the
        runtime from the executables table and deploy it into the local
        container, charging this replica's CPU, *without* republishing
        UDDI (the record is already published).  Concurrent requests for
        the same service park on one pending event instead of
        double-building.
        """
        while True:
            try:
                self.soap_server.service(service_name)
                return  # already servable here (generated or infra)
            except ServiceNotFound:
                pass
            pending = self._materializing.get(service_name)
            if pending is None:
                break
            yield pending  # someone is building it; re-check after

        row = self.store.get_record(service_name)
        if row is None:
            raise ServiceNotFound(
                f"onServe has no service {service_name!r}")
        from repro.errors import RecordNotFound
        try:
            exe = self.dbmanager.db.get_by_pk(self.dbmanager.TABLE,
                                              row["executable_name"])
        except RecordNotFound:
            raise ServiceNotFound(
                f"service {service_name!r} lost its executable "
                f"{row['executable_name']!r}") from None
        record = self._record_from_row(exe, uploaded_by="materialize")
        runtime = GridServiceRuntime(self, record)
        pending = self.sim.event(f"materialize:{service_name}")
        self._materializing[service_name] = pending
        try:
            with span(ctx, "onserve:materialize", service=service_name):
                yield self.builder.build_and_deploy(record, runtime.handler)
            self.services[service_name] = ServiceStateStore.rehydrate(row)
            self.runtimes[service_name] = runtime
            self.bus.emit("core.service_materialized", layer="core",
                          request_id=ctx.request_id if ctx else None,
                          service=service_name, replica=self.replica,
                          origin=row["replica"])
        finally:
            del self._materializing[service_name]
            pending.succeed()

    def _on_soap_undeploy(self, service_name: str) -> None:
        """Container undeploy hook: unpublish UDDI, drop the registries.

        Idempotent, and tolerant of services the container hosts that
        onServe never generated (agent, inquiry, management).  When the
        drop is itself the *result* of a store fan-out (another replica
        undeployed), only the local caches fall — the origin replica
        already did the global cleanup.
        """
        service = self.services.pop(service_name, None)
        self.runtimes.pop(service_name, None)
        if self._cascading == service_name:
            return
        row = self.store.remove_record(service_name, origin=self.replica)
        if service is None and row is None:
            return  # never a generated service (agent, inquiry, ...)
        key = service.uddi_service_key if service is not None \
            else row["uddi_service_key"]
        try:
            self.uddi.delete_service(key)
        except UddiError:
            pass  # already unpublished by an explicit teardown

    def _on_store_removed(self, service_name: str) -> None:
        """Another replica undeployed: drop local surfaces only."""
        self._cascading = service_name
        try:
            try:
                self.soap_server.undeploy(service_name)  # fires caches
            except ServiceNotFound:
                self.services.pop(service_name, None)
                self.runtimes.pop(service_name, None)
        finally:
            self._cascading = None

    def _on_store_republished(self, service_name: str) -> None:
        """Another replica replaced the bytes/spec of *service_name*.

        A materialized copy refreshes in place from the fresh
        executables row (:meth:`_refresh_local`); one being built from
        the old row refreshes the moment its build lands.  A replica
        holding no copy has nothing to refresh — its next request
        materializes from the fresh row — and only invalidates its
        client caches.
        """
        pending = self._materializing.get(service_name)
        if pending is not None:
            pending.add_callback(
                lambda _: self._on_store_republished(service_name))
            return
        runtime = self.runtimes.get(service_name)
        if runtime is None:
            for listener in list(self._republish_listeners):
                listener(service_name)
            return
        exe = self.dbmanager.db.get_by_pk(self.dbmanager.TABLE,
                                          runtime.record.name)
        self._refresh_local(service_name, self._record_from_row(
            exe, uploaded_by="materialize"))

    @staticmethod
    def _record_from_row(row, uploaded_by: str) -> ExecutableRecord:
        """An :class:`ExecutableRecord` rebuilt from an executables row."""
        return ExecutableRecord(
            row["name"], row["description"],
            parse_params_spec(row["params_spec"]), size=row["size"],
            uploaded_by=uploaded_by, uploaded_at=row["stored_at"])

    def undeploy_service(self, service_name: str) -> Process:
        """Remove a generated service everywhere (SOAP, UDDI, DB).

        Works from any replica: if the service was never materialized
        here, the store record is removed directly (fanning the drop out
        to whichever replicas do hold it) and UDDI is unpublished.
        """
        service = self.get_service(service_name)

        def op() -> Generator[Event, None, None]:
            try:
                # The undeploy listener handles UDDI + registry cleanup.
                self.soap_server.undeploy(service_name)
            except ServiceNotFound:
                # Record-only on this replica: do the global cleanup
                # directly; holders drop via the store fan-out.
                self.store.remove_record(service_name, origin=self.replica)
                try:
                    self.uddi.delete_service(service.uddi_service_key)
                except UddiError:
                    pass
            yield self.dbmanager.delete_executable(service.executable_name)

        return self.sim.process(op(), name=f"undeploy:{service_name}")

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<OnServe services={sorted(self.services)}>"


def deploy_onserve(testbed: Testbed,
                   config: Optional[OnServeConfig] = None,
                   dbmanager: Optional[DbManager] = None) -> Process:
    """Deploy one onServe appliance onto *testbed* (a sim process).

    A one-replica :func:`~repro.core.fabric.deploy_fabric` with the
    router off; the process-event's value is the
    :class:`~repro.core.fabric.OnServeStack`.  Passing a *dbmanager*
    (e.g. one recovered with
    :meth:`~repro.db.dbmanager.DbManager.recover_from_crash`) redeploys
    an appliance over existing data: every stored executable's service
    is rebuilt and republished automatically.
    """
    from repro.core.fabric import deploy_fabric
    return deploy_fabric(testbed, config, dbmanager)
