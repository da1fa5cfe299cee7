"""The benchmark's three workloads, driven only through the public API.

Each workload is one simulated deployment, built in :meth:`Workload.setup`
(testbed, deploy, payload generation, catalog preload) and then driven
through a measured phase in :meth:`Workload.measure`.  Everything the
measured phase needs — arrival times, tenant and executable choices,
upload payloads — is drawn or generated in ``setup`` from the arrival
seed, so the measured phase does only system work.  :meth:`Workload.check`
runs after the timed phase: it verifies every output, runs the
critical-path analysis and gathers the counters the traced run reports.

The executable catalog is fixed by :data:`CATALOG_SEED` and does not move
with the arrival seed: seeds vary the traffic, not the software offered.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import time
from typing import Dict, List, Optional

from repro.core import RequestContext, deploy_onserve, discover_and_invoke
from repro.core.datastructures import service_name_for
from repro.core.fabric import deploy_fabric
from repro.core.onserve import OnServeConfig
from repro.grid import build_testbed
from repro.hardware.host import HostSpec
from repro.simkernel.kernel import Simulator
from repro.telemetry.critical_path import analyze_request
from repro.telemetry.events import bus as event_bus
from repro.units import GB, KB, MB, MBps
from repro.workloads import make_payload

CATALOG_SEED = 20100913
#: Simulation events per timed segment of the measured phase.
SEGMENT_EVENTS = 250
#: Program seconds per reference slice: a segment is followed by one
#: slice, and one more for every further REFERENCE_EVERY_S it took, so
#: the slices sample the host in proportion to the program's time.
REFERENCE_EVERY_S = 0.005


class _RefItem:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _ref_step(table: dict, heap: list, i: int) -> None:
    item = _RefItem(i & 7, i)
    table[item.key] = table.get(item.key, 0) + item.value
    heapq.heappush(heap, (i * 31 % 97, i, item))
    if len(heap) > 16:
        heapq.heappop(heap)


def reference_slice() -> float:
    """Host seconds of a fixed slice of pure-Python work.

    Run between the segments of the measured phase, so it meets the
    host as the program just met it: a neighbour that slows the
    interpreter, or evicts its caches, slows this slice too.  It uses
    no code of the program, so a change to the program leaves its work
    unchanged.  Garbage collection is held off while it runs (what it
    allocates it frees).
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    heap: list = []
    for i in range(150):
        _ref_step(table, heap, i)
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


#: First line of every output of the ``fixed`` profile.
OUTPUT_HEADER = "fixed-profile output\n"

#: Every ``analyze_request`` bucket, in report order.
CP_BUCKETS = (
    "ws/transfer", "ws/compute", "agent/transfer", "agent/compute",
    "grid/transfer", "grid/queueing", "grid/compute",
    "notify/propagation", "db/storage", "core/compute", "core/queueing",
    "other/compute",
)

def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: List[float]) -> Dict[str, float]:
    """The highest percentile with at least 10 samples beyond it.

    That is the ``n - 10``-th smallest value, the ``100 (n - 10) / n``
    percentile.  With 10 samples or fewer nothing qualifies and the
    maximum is reported as percentile 100.
    """
    n = len(values)
    if n <= 10:
        return {"pct": 100.0, "n": n, "value": max(values, default=0.0)}
    return {"pct": round(100.0 * (n - 10) / n, 3), "n": n,
            "value": sorted(values)[n - 11]}


class Op:
    """One attempted operation: an invocation or an upload."""

    __slots__ = ("kind", "due", "done", "ok", "error", "ctx", "target",
                 "tenant", "result")

    def __init__(self, kind: str, due: float, target: str, tenant: int):
        self.kind = kind
        self.due = due
        self.done: Optional[float] = None
        self.ok = False
        self.error = ""
        self.ctx: Optional[RequestContext] = None
        self.target = target
        self.tenant = tenant
        self.result = None

    @property
    def latency(self) -> float:
        return self.done - self.due


class EventRecorder:
    """Keeps the bus events the analysis needs, beyond the bus ring.

    Offers the two query methods ``analyze_request`` calls on a bus,
    indexed by job id so analysing every request stays linear.
    """

    KINDS = ("sched.submit", "sched.start", "sched.finish",
             "notify.deliver", "db.lock.wait", "db.fetch")

    def __init__(self, bus):
        self._first: Dict[tuple, object] = {}
        self._by_kind: Dict[str, list] = {k: [] for k in self.KINDS}
        self._unsubscribe = bus.subscribe(self._on_event, kinds=self.KINDS)

    def _on_event(self, event) -> None:
        self._by_kind[event.kind].append(event)
        key = (event.kind, event.fields.get("job_id"))
        self._first.setdefault(key, event)

    def close(self) -> None:
        self._unsubscribe()

    def first(self, kind, job_id=None, **_):
        return self._first.get((kind, job_id))

    def events(self, kind=None, **_):
        return list(self._by_kind.get(kind, ()))


class Executable:
    """One catalog entry: a ``fixed``-profile executable."""

    def __init__(self, filename: str, size: int, runtime: float,
                 output_bytes: int):
        self.filename = filename
        self.size = size
        self.runtime = runtime
        self.output_bytes = output_bytes
        self.service = service_name_for(filename)

    def payload(self, version: int = 0, size: Optional[int] = None
                ) -> bytes:
        return make_payload("fixed", size=size or self.size,
                            runtime=f"{self.runtime:g}",
                            output_bytes=str(self.output_bytes),
                            version=str(version))


def small_catalog(count: int = 24) -> List[Executable]:
    """Small executables, 8-256 KB, with varied runtimes and outputs."""
    rng = random.Random(CATALOG_SEED)
    sizes = [int(KB(8) * 32 ** (i / (count - 1))) for i in range(count)]
    rng.shuffle(sizes)  # popularity rank is not size rank
    runtimes = (2.0, 3.0, 5.0, 8.0, 12.0, 20.0)
    return [Executable(f"app{i:03d}.bin", sizes[i],
                       runtimes[rng.randrange(len(runtimes))],
                       int(KB(rng.choice((1, 2, 4, 8)))))
            for i in range(count)]


def zipf_weights(count: int, s: float = 1.1) -> List[float]:
    return [1.0 / (rank + 1) ** s for rank in range(count)]


class Workload:
    """Shared machinery: op bookkeeping, checks, counters."""

    name = "abstract"
    #: Overhead budget (simulated seconds) over an executable's nominal
    #: runtime within which an invocation counts toward ``slo_attain``:
    #: the 80th percentile of that overhead in the seed-0 run, rounded
    #: up to a whole second.
    slo_budget = 0.0
    #: Arrival rate (req/s) of an open loop and why it was chosen;
    #: ``None`` for closed loops.
    rate: Optional[float] = None
    rate_why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.ops: List[Op] = []
        self.catalog: Dict[str, Executable] = {}
        self.notes: List[str] = []
        #: Requests in flight at the middle and at the end of the
        #: arrival window (open loops): equal levels mean no backlog.
        self.inflight: Dict[str, int] = {}
        #: Host seconds the measured phase spent in the program and in
        #: the reference slices between its segments, and the numbers of
        #: segments and slices (see :meth:`run_until`).
        self.program_s = 0.0
        self.reference_s = 0.0
        self.segment_count = 0
        self.reference_count = 0
        #: The cProfile profile of a traced repetition, paused around
        #: the reference slices.
        self.profile = None

    # -- phases ---------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    # -- helpers for subclasses -------------------------------------------

    def run_until(self, event) -> None:
        """``sim.run(until=event)`` for the measured phase, timed in
        segments of :data:`SEGMENT_EVENTS` events with
        :func:`reference_slice` runs after each.

        Like ``Simulator.run`` this stops right after the step that
        processes *event*, and a failed *event* raises.
        """
        step, clock = self.sim.step, time.perf_counter
        profile = self.profile
        while not event.processed:
            t0 = clock()
            for _ in range(SEGMENT_EVENTS):
                step()
                if event.processed:
                    break
            elapsed = clock() - t0
            self.program_s += elapsed
            self.segment_count += 1
            if profile is not None:
                profile.disable()
            for _ in range(1 + int(elapsed / REFERENCE_EVERY_S)):
                self.reference_s += reference_slice()
                self.reference_count += 1
            if profile is not None:
                profile.enable()
        if not event.ok:
            raise event.value

    def _start_phase(self) -> None:
        self.recorder = EventRecorder(event_bus(self.sim))
        self.base = self.snapshot()

    def _preload(self, executables: List[Executable]) -> None:
        host = self.testbed.user_hosts[0]
        for exe in executables:
            self.sim.run(until=self.stack.portal.upload_and_generate(
                host, exe.filename, exe.payload(), description="benchmark"))
            self.catalog[exe.service] = exe

    def invoke(self, op: Op):
        """A sim process running one invocation with its own context."""
        sim = self.sim
        client = self.stack.user_clients[op.tenant]

        def run():
            op.ctx = RequestContext.create(sim, principal=client.host.name)
            try:
                op.result = yield discover_and_invoke(
                    self.stack, client, op.target, ctx=op.ctx)
            except Exception as exc:  # counted, never dropped
                op.error = f"{type(exc).__name__}: {exc}"
            op.done = sim.now

        return sim.process(run(), name=f"bench:invoke:{op.target}")

    def upload(self, op: Op, exe: Executable, data: bytes):
        """A sim process running one portal upload with its own context."""
        sim = self.sim
        host = self.testbed.user_hosts[op.tenant]

        def run():
            op.ctx = RequestContext.create(sim, principal=host.name)
            try:
                op.result = yield self.stack.portal.upload_and_generate(
                    host, exe.filename, data, description="benchmark",
                    ctx=op.ctx)
            except Exception as exc:
                op.error = f"{type(exc).__name__}: {exc}"
            op.done = sim.now

        return sim.process(run(), name=f"bench:upload:{exe.filename}")

    # -- after the timed phase ----------------------------------------------

    def check(self) -> Dict[str, object]:
        """Verify outputs, analyse every request, gather counters."""
        self.recorder.close()
        uddi = self.stack.uddi
        # Operations that completed but returned something incorrect, as
        # opposed to operations that raised (a fault, a refusal).
        wrong = 0
        for op in self.ops:
            if op.error or op.done is None:
                op.ok = False
                op.error = op.error or "never completed"
                continue
            if op.kind == "invoke":
                exe = self.catalog[op.target]
                out = op.result
                op.ok = (isinstance(out, str)
                         and out.startswith(OUTPUT_HEADER)
                         and len(out) == exe.output_bytes)
                if not op.ok:
                    op.error = "wrong output"
                    wrong += 1
            else:
                op.ok = bool(uddi.find_service(op.result.service_name))
                if not op.ok:
                    op.error = "not discoverable after publish"
                    wrong += 1

        attributions = [analyze_request(op.ctx, bus=self.recorder)
                        for op in self.ops if op.ctx is not None]
        unreconciled = [a.request_id for a in attributions
                        if not a.reconciles()]

        invokes = [op for op in self.ops if op.kind == "invoke"]
        uploads = [op for op in self.ops if op.kind == "upload"]
        inv_lat = [op.latency for op in invokes if op.ok]
        up_lat = [op.latency for op in uploads if op.ok]
        within = sum(
            1 for op in invokes if op.ok and op.latency
            <= self.catalog[op.target].runtime + self.slo_budget)
        failed = sum(1 for op in self.ops if not op.ok)
        inv_tail = tail(inv_lat)
        up_tail = tail(up_lat)

        sim_metrics = {
            "invoke_p50_s": percentile(inv_lat, 50.0),
            "invoke_tail_s": inv_tail["value"],
            "upload_p50_s": percentile(up_lat, 50.0),
            "upload_tail_s": up_tail["value"],
            "failed_ratio": failed / len(self.ops),
            "slo_attain": within / len(invokes) if invokes else 0.0,
        }
        counts = self.counters(invokes)
        for bucket in CP_BUCKETS:
            per_request = [a.buckets.get(bucket, 0.0) for a in attributions]
            key = "cp." + bucket.replace("/", "-")
            counts[key + ".p50_s"] = percentile(per_request, 50.0)
            counts[key + ".tail_s"] = tail(per_request)["value"]
        record = {
            "invocations": len(invokes), "uploads": len(uploads),
            "invoke_tail_pct": inv_tail["pct"], "invoke_n": inv_tail["n"],
            "upload_tail_pct": up_tail["pct"], "upload_n": up_tail["n"],
            "slo_budget_s": self.slo_budget,
            "sim_seconds": self.sim.now - self.t0,
            "measured_segments": self.segment_count,
            "notes": self.notes,
        }
        if self.rate is not None:
            record["arrival_rate_per_s"] = self.rate
            record["arrival_rate_why"] = self.rate_why
            record["inflight_mid_window"] = self.inflight.get("mid")
            record["inflight_at_window_end"] = self.inflight.get("end")
            record["generator_lateness_s"] = 0.0
        return {
            "attempted": len(self.ops),
            "failed": failed,
            "wrong": wrong,
            "errors": sorted({op.error for op in self.ops if not op.ok}),
            "unreconciled": unreconciled,
            "sim": sim_metrics,
            "counts": counts,
            "record": record,
        }

    # -- counters ----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Cumulative public counters; the phase reports differences."""
        stack, tb = self.stack, self.testbed
        onserves = getattr(stack, "onserves", [stack.onserve])
        db = stack.dbmanager
        read_router = db.read_router
        request_router = getattr(stack, "router", None)
        caches = [c.cache for c in stack.user_clients
                  if c.cache is not None]
        return {
            "events": self.sim.events_processed,
            "net_bytes": sum(o.host.net_bytes_in() + o.host.net_bytes_out()
                             for o in onserves),
            "soap_calls": sum(o.soap_server.metrics.total_calls()
                              for o in onserves),
            "faults": sum(o.soap_server.metrics.total_faults()
                          for o in onserves),
            "cache_hits": sum(c.hits for c in caches),
            "cache_misses": sum(c.misses for c in caches),
            "routed": (request_router.requests_routed
                       if request_router is not None else 0),
            "rows_scanned": db.db.stats["rows_scanned"],
            "index_rows": db.db.stats["index_rows"],
            "snapshot_reads": db.db.stats["snapshot_reads"],
            "replica_reads": read_router.replica_reads if read_router else 0,
            "primary_reads": read_router.primary_reads if read_router else 0,
            "gram_submissions": sum(g.submissions
                                    for g in tb.gatekeepers.values()),
            "gram_exchanges": sum(g.exchanges
                                  for g in tb.gatekeepers.values()),
            "gridftp_transfers": sum(f.transfers_in + f.transfers_out
                                     for f in tb.ftp_servers.values()),
            "notify_delivered": (stack.onserve.notify_queue.delivered
                                 if stack.onserve.notify_queue else 0),
            "jobs_completed": sum(s.scheduler.jobs_completed
                                  for s in tb.sites),
            "agent_polls": sum(o.agent.output_polls + o.agent.batch_polls
                               for o in onserves),
            "coalesce_joiners": sum(sum(o.flights.joins.values())
                                    for o in onserves),
            "events_emitted": event_bus(self.sim).emitted,
        }

    def counters(self, invokes: List[Op]) -> Dict[str, float]:
        now = self.snapshot()
        d = {k: now[k] - self.base[k] for k in now}
        lookups = d["cache_hits"] + d["cache_misses"]
        reads = d["replica_reads"] + d["primary_reads"]
        ok_invokes = sum(1 for op in invokes if op.ok)
        fetches = self.recorder.events("db.fetch")
        return {
            "simkernel.events": d["events"],
            "hardware.appliance_net_mb": d["net_bytes"] / 1e6,
            "ws.soap_calls": d["soap_calls"],
            "ws.cache_hit_ratio": (d["cache_hits"] / lookups
                                   if lookups else 0.0),
            "ws.router_routed": d["routed"],
            "ws.faults": d["faults"],
            "db.rows_scanned": d["rows_scanned"],
            "db.index_rows": d["index_rows"],
            "db.snapshot_reads": d["snapshot_reads"],
            "db.replica_read_ratio": (d["replica_reads"] / reads
                                      if reads else 0.0),
            "db.lock_wait_s": sum(ev.fields.get("waited", 0.0) for ev in
                                  self.recorder.events("db.lock.wait")),
            "db.blob_mb_loaded": sum(ev.fields.get("nbytes", 0)
                                     for ev in fetches) / 1e6,
            "grid.gram_submissions": d["gram_submissions"],
            "grid.gram_exchanges": d["gram_exchanges"],
            "grid.gridftp_transfers": d["gridftp_transfers"],
            "grid.notify_delivered": d["notify_delivered"],
            "grid.jobs_completed": d["jobs_completed"],
            "core.polls_per_invocation": (d["agent_polls"] / ok_invokes
                                          if ok_invokes else 0.0),
            "core.coalesce_joiners": d["coalesce_joiners"],
            "telemetry.events_emitted": d["events_emitted"],
        }


class OpenLoopWorkload(Workload):
    """Seeded Poisson invocations over a Zipf-popular small catalog.

    A trickle of uploads rides along so every workload reports upload
    latency: new executables here, replacements in ``production_mix``.
    """

    requests = 400
    uploads = 24
    tenants = 8
    rate = 2.5
    rate_why = ("invocation p95 is 29.2 s at 0.5-1 req/s, 30.0 s at 2.5, "
                "30.4 s at 3, 40.0 s at 4 and 76.8 s at 5 req/s (seed 1): "
                "the knee lies between 3 and 4 req/s; at 3 req/s Poisson "
                "bursts crossed it on 2 of 20 seeds (tail 48 s against "
                "32 s), at 2.5 req/s on none")

    def config(self) -> OnServeConfig:
        return OnServeConfig()

    def deploy(self, testbed):
        return deploy_fabric(testbed, self.config(), replicas=4,
                             router=True)

    def upload_plan(self, catalog: List[Executable]):
        """(executable, payload) for each measured-phase upload."""
        plan = []
        for i in range(self.uploads):
            exe = Executable(f"new{i:03d}.bin",
                             int(KB(self.rng.uniform(8.0, 64.0))), 2.0,
                             int(KB(1)))
            plan.append((exe, exe.payload()))
        return plan

    def setup(self) -> None:
        self.sim = Simulator(seed=self.seed)
        self.testbed = build_testbed(sim=self.sim, n_sites=3,
                                     nodes_per_site=4, cores_per_node=8,
                                     n_users=self.tenants)
        self.stack = self.sim.run(until=self.deploy(self.testbed))
        self.stack.enable_client_caches()
        catalog = small_catalog()
        self._preload(catalog)

        rng = self.rng
        weights = zipf_weights(len(catalog))
        services = [exe.service for exe in catalog]
        t = 0.0
        arrivals = []
        for _ in range(self.requests):
            t += rng.expovariate(self.rate)
            arrivals.append((t, rng.choices(services, weights)[0],
                             rng.randrange(self.tenants)))
        window = t
        self.uploads_due = []
        for exe, data in self.upload_plan(catalog):
            self.uploads_due.append((rng.uniform(0.0, window), exe, data,
                                     rng.randrange(self.tenants)))
        self.uploads_due.sort(key=lambda u: u[0])
        self.arrivals = arrivals
        self._start_phase()

    def measure(self) -> None:
        sim = self.sim
        self.t0 = t0 = sim.now
        procs = []

        def in_flight() -> int:
            return sum(1 for op in self.ops if op.done is None)

        def generator():
            events = [(due, 0, item) for due, *item in self.arrivals]
            events += [(due, 1, item) for due, *item in self.uploads_due]
            events.sort(key=lambda e: (e[0], e[1]))
            for i, (due, kind, item) in enumerate(events):
                if i == len(events) // 2:
                    self.inflight["mid"] = in_flight()
                if t0 + due > sim.now:
                    yield sim.timeout(t0 + due - sim.now)
                if kind == 0:
                    op = Op("invoke", sim.now, item[0], item[1])
                    self.ops.append(op)
                    procs.append(self.invoke(op))
                else:
                    exe, data, tenant = item
                    op = Op("upload", sim.now, exe.service, tenant)
                    self.ops.append(op)
                    procs.append(self.upload(op, exe, data))
            self.inflight["end"] = in_flight()

        self.run_until(sim.process(generator(), name="bench:arrivals"))
        self.run_until(sim.all_of(procs))


class InvokeSmall(OpenLoopWorkload):
    name = "invoke_small"
    slo_budget = 14.0


class ProductionMix(OpenLoopWorkload):
    name = "production_mix"
    slo_budget = 5.0

    def config(self) -> OnServeConfig:
        return OnServeConfig(
            coalesce=True, datapath=True, notify=True,
            notify_sites=("ncsa",), upload_cache=True, db_mvcc=True,
            db_serialize=True, db_chunk_bytes=int(KB(64)), db_replicas=2)

    def deploy(self, testbed):
        self.notes.append(
            "deploy_fabric(replicas>1) attaches no NotifyQueue even with "
            "notify=True, so grid.notify_delivered is 0 and "
            "cp.notify-propagation is absent (known gap, left as measured)")
        return deploy_fabric(testbed, self.config(), replicas=4,
                             router=True, self_healing=True)

    def upload_plan(self, catalog):
        # Replacements of the most popular entries: same behaviour, new
        # bytes of a somewhat different size, so a republish invalidates
        # caches under live traffic.
        return [(catalog[i % 6], catalog[i % 6].payload(
                    1 + i // 6,
                    int(catalog[i % 6].size * self.rng.uniform(0.8, 1.2))))
                for i in range(self.uploads)]


class UploadLarge(Workload):
    """Closed loop: providers replace 1-8 MB executables under traffic.

    The seed orders the work, not its amount: each provider alternates
    between its two executables, starting with a seeded one, and each
    tenant invokes every executable equally often, in a seeded order.
    """

    name = "upload_large"
    slo_budget = 11.0
    providers = 3
    uploads_each = 10
    #: Provider think time between uploads (simulated seconds), so the
    #: uploads spread over the tenants' invocations.  Fixed: with
    #: exponential think times, which invocations met an upload varied
    #: so much by seed that slo_attain spread 16% (IQR over median, 10
    #: seeds) against 8% with this.
    think = 15.0
    tenants = 4
    #: Passes of each tenant over the whole catalog.
    invoke_cycles = 2
    #: Distinct replacement payloads per executable, cycled through.
    versions = 3

    def setup(self) -> None:
        self.sim = Simulator(seed=self.seed)
        self.testbed = build_testbed(
            sim=self.sim, n_sites=3, nodes_per_site=4, cores_per_node=8,
            n_users=self.providers + self.tenants,
            appliance_uplink=MBps(50),
            appliance_spec=HostSpec(cores=8, disk_bandwidth=MBps(200),
                                    memory_bytes=GB(16)))
        self.stack = self.sim.run(until=deploy_onserve(self.testbed))
        rng = random.Random(CATALOG_SEED)
        catalog = []
        for p in range(self.providers):
            for j in range(2):
                catalog.append(Executable(
                    f"big{p}{j}.bin", int(MB(rng.uniform(1.0, 8.0))),
                    rng.choice((5.0, 10.0, 20.0)), int(KB(4))))
        self._preload(catalog)

        rng = self.rng
        # A replacement is the same program rebuilt: same behaviour, new
        # bytes, a size within 10% of the original.
        versions = {exe.filename: [
            exe.payload(1 + v, int(exe.size * rng.uniform(0.9, 1.1)))
            for v in range(self.versions)] for exe in catalog}
        self.plans = []
        for p in range(self.providers):
            mine = catalog[2 * p:2 * p + 2]
            first = rng.randrange(2)
            plan = []
            for k in range(self.uploads_each):
                exe = mine[(first + k) % 2]
                version = versions[exe.filename][k // 2 % self.versions]
                plan.append((self.think, exe, version))
            self.plans.append(plan)
        services = [exe.service for exe in catalog]
        self.tenant_plans = []
        for _ in range(self.tenants):
            plan = []
            for _ in range(self.invoke_cycles):
                plan += rng.sample(services, len(services))
            self.tenant_plans.append(plan)
        self._start_phase()

    def measure(self) -> None:
        sim = self.sim
        self.t0 = sim.now

        def provider(p):
            for think, exe, data in self.plans[p]:
                yield sim.timeout(think)
                op = Op("upload", sim.now, exe.service, p)
                self.ops.append(op)
                yield self.upload(op, exe, data)

        def tenant(i):
            for target in self.tenant_plans[i]:
                op = Op("invoke", sim.now, target, self.providers + i)
                self.ops.append(op)
                yield self.invoke(op)

        procs = [sim.process(provider(p), name=f"bench:provider:{p}")
                 for p in range(self.providers)]
        procs += [sim.process(tenant(i), name=f"bench:tenant:{i}")
                  for i in range(self.tenants)]
        self.run_until(sim.all_of(procs))


WORKLOADS = {cls.name: cls for cls in (InvokeSmall, UploadLarge,
                                        ProductionMix)}
