"""The GridService template runtime: what a generated service *does*.

"The GridService 'template-class' contains the code that actually
initializes the execution of an associated executable on the Grid"
(paper §VI).  Its ``execute`` operation implements the §VII.B workflow:

1. *File retrieval* — load the executable from the database (CPU peak:
   "loading and decompressing the file from the database") and store it
   in a temporary location on the appliance disk.
2. *Authentication* — establish an agent session (MyProxy logon) unless
   a fresh one is cached.
3. *Upload* — push the executable to the chosen site via the agent
   (GridFTP over the thin WAN uplink: Figure 7's 60-second plateau).
   Faithfully, the file "will even be reloaded when executed a 2nd
   time" — no upload cache unless the ablation flag is set.
4. *Job description generation* — build the RSL from the invocation
   parameters (second CPU peak: "when the job is being created and
   submitted").
5. *Job submission* — through the agent to the gatekeeper.
6. *Tentative output polling* — the status workaround: on a fixed
   interval fetch whatever output exists, write it to the local disk
   (the periodic disk-write peaks of Figures 6-7), and check for the
   stdout file's existence; finish when it appears.

Resilience: steps 3-6 run under :func:`_run_with_failover` — transient
failures (see :func:`repro.errors.is_retryable`) are retried per call
site with the middleware's backoff policy, trip the failed site's
circuit breaker, and fail the whole invocation over to the next untried
site (re-staging the executable via GridFTP) until the configured
failover budget or the request deadline runs out.  With no faults
injected none of this machinery creates a single extra simulation
event.
"""

from __future__ import annotations

from typing import (
    Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING,
)

from repro.core.context import RequestContext, span
from repro.core.datastructures import ExecutableRecord
from repro.core.watchdog import await_mux, await_notification, poll_until
from repro.cyberaide.jobspec import CyberaideJobSpec
from repro.errors import (
    InvocationError, JobError, JobNotFound, is_retryable, root_cause_name,
)
from repro.resilience.retry import retry_call
from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.onserve import OnServe

__all__ = ["GridServiceRuntime", "InvocationReport"]

#: What a completion-detection rung returns to the shared tail of
#: ``_await_output``: ``(state, polls, batched, pushed, lost)``.
Detection = Generator[Event, None, Tuple[str, int, bool, bool, bool]]


class InvocationReport:
    """Timing breakdown of one execute() call (for the benchmarks)."""

    __slots__ = ("service_name", "started_at", "finished_at", "retrieval",
                 "auth", "upload", "submit", "polling", "polls", "job_id",
                 "output_bytes", "ok", "error")

    def __init__(self, service_name: str, started_at: float):
        self.service_name = service_name
        self.started_at = started_at
        self.finished_at: Optional[float] = None
        self.retrieval = 0.0
        self.auth = 0.0
        self.upload = 0.0
        self.submit = 0.0
        self.polling = 0.0
        self.polls = 0
        self.job_id = ""
        self.output_bytes = 0
        self.ok = False
        self.error = ""

    @property
    def total(self) -> float:
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    @property
    def overhead(self) -> float:
        """Middleware time excluding the grid-side wait (poll phase)."""
        return self.retrieval + self.auth + self.upload + self.submit

    def as_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__} | {
            "total": self.total, "overhead": self.overhead}


class GridServiceRuntime:
    """The handler behind one generated service."""

    def __init__(self, onserve: "OnServe", record: ExecutableRecord):
        self.onserve = onserve
        self.record = record
        self.sim = onserve.sim
        self._session: Optional[str] = None
        self._session_expires = 0.0
        #: Event shared by callers waiting on an in-flight authentication
        #: (prevents a thundering herd of MyProxy logons).
        self._auth_pending = None
        self._rr_cursor = 0
        #: Asynchronous invocations in flight: ticket -> background process.
        self._tickets: Dict[str, Any] = {}
        #: One report per execute() call, in order.
        self.reports: List[InvocationReport] = []

    # -- the SOAP handler -----------------------------------------------------

    def handler(self, operation: str, params: Dict[str, Any],
                ctx: Optional[RequestContext] = None):
        if operation == "describe":
            return self._describe()
        if operation == "execute":
            return self._execute(params, ctx=ctx)
        if operation == "submit":
            return self._submit_async(params, ctx=ctx)
        if operation == "poll":
            return self._poll_async(params["ticket"])
        if operation == "result":
            return self._result_async(params["ticket"])
        raise InvocationError(f"generated service has no operation "
                              f"{operation!r}")  # unreachable via SOAP

    # -- asynchronous invocation (submit / poll / result) ----------------------

    def _submit_async(self, params: Dict[str, Any],
                      ctx: Optional[RequestContext] = None
                      ) -> Generator[Event, None, str]:
        """Start the execute pipeline in the background; return a ticket."""
        yield self.onserve.host.compute(0.002, tag="service")
        ticket = f"tkt-{self.record.name}-{len(self._tickets) + 1:05d}"
        # The background work outlives this SOAP request: give it a
        # derived context so its trace collects separately.
        child = ctx.child() if ctx is not None else None
        proc = self.sim.process(self._execute(params, ctx=child),
                                name=f"async:{ticket}")
        # Failures are delivered through result(), not as stray crashes.
        proc.add_callback(lambda ev: ev.defused() if not ev._ok else None)
        self._tickets[ticket] = proc
        return ticket

    def _poll_async(self, ticket: str) -> Generator[Event, None, bool]:
        yield self.onserve.host.compute(0.001, tag="service")
        return self._ticket(ticket).triggered

    def _result_async(self, ticket: str) -> Generator[Event, None, str]:
        yield self.onserve.host.compute(0.001, tag="service")
        proc = self._ticket(ticket)
        if not proc.triggered:
            raise InvocationError(
                f"ticket {ticket!r} is still running (poll first)")
        del self._tickets[ticket]
        if not proc.ok:
            raise InvocationError(
                f"ticket {ticket!r} failed: {proc.value}")
        return proc.value

    def _ticket(self, ticket: str):
        proc = self._tickets.get(ticket)
        if proc is None:
            raise InvocationError(f"unknown ticket {ticket!r}")
        return proc

    def _describe(self) -> Generator[Event, None, str]:
        yield self.onserve.host.compute(0.001, tag="service")
        return self.record.description or self.record.name

    # -- §VII.B: the execute workflow -----------------------------------------------

    def _execute(self, params: Dict[str, Any],
                 ctx: Optional[RequestContext] = None
                 ) -> Generator[Event, None, str]:
        cfg = self.onserve.config
        host = self.onserve.host
        report = InvocationReport(self.record.name, self.sim.now)
        self.reports.append(report)
        held_bytes = 0  # RAM held for the in-flight payload
        try:
            # 1. File retrieval: DB load + temp copy on local disk.  The
            #    decompressed payload sits in RAM until staged to the grid.
            #    Under coalescing, concurrent invocations share one DB
            #    fetch (the leader's) instead of N decompressions.
            mark = self.sim.now
            chunked = cfg.db_chunk_bytes > 0
            # When the DB-scale plane is on, fetch time gets its own
            # db:fetch span so the critical-path analyzer attributes it
            # to db/storage instead of folding it into service self-time.
            db_tier_on = (chunked or cfg.db_mvcc or cfg.db_serialize
                          or cfg.db_replicas > 0)
            db_ctx = ctx if db_tier_on else None
            with span(ctx, "service:retrieval", executable=self.record.name):
                # Streamed retrieval (chunked): each decompressed chunk
                # goes straight from the DB fetch to the temp file, so
                # resident RAM stays O(chunk) instead of O(blob).
                def to_temp(nbytes):
                    yield host.disk_write(nbytes)

                def db_fetch():
                    with span(db_ctx, "db:fetch",
                              executable=self.record.name):
                        return (yield self.onserve.dbmanager.load_executable(
                            self.record.name,
                            on_chunk=to_temp if chunked else None))

                exe = yield from self.onserve.flights.do(
                    ("db-load", self.onserve.replica, self.record.name),
                    db_fetch, group="db-load")
                if not chunked:
                    host.allocate_memory(exe.size)
                    held_bytes = exe.size
                    # "stored in a temporary location"
                    yield host.disk_write(exe.size)
            report.retrieval = self.sim.now - mark

            # 2. Authentication through the agent (cached while fresh).
            mark = self.sim.now
            with span(ctx, "service:auth"):
                yield from self._ensure_session(ctx)
            report.auth = self.sim.now - mark

            # Resource selection via the information service: the ranked
            # listing is fetched once; the failover loop below walks it.
            sites = yield self.onserve.agent_stub.listSites(ctx=ctx)
            available = [s for s in (sites.split(",") if sites else []) if s]

            # Build the job spec from the declared parameters, in order.
            arguments = [_argument(params[p.name]) for p in self.record.params]
            tag = self.onserve.new_job_tag()
            spec = CyberaideJobSpec(
                self.record.name, arguments=arguments,
                count=cfg.default_count,
                max_wall_time=cfg.default_walltime,
                queue=cfg.default_queue)

            def attempt_on_site(site: str):
                """Steps 3-6 against one site (a delegated generator)."""
                nonlocal held_bytes
                policy = self.onserve.retry_policy

                # 3. Upload the executable to the site (re-uploaded every
                #    time unless the upload-cache ablation is on).  Under
                #    coalescing, concurrent invocations staging the same
                #    (site, path, bytes) share one GridFTP transfer.
                mark = self.sim.now
                with span(ctx, "service:upload", site=site):
                    staged = spec.staged_path()
                    staged_hit = (cfg.upload_cache and
                                  self.onserve.is_staged(site, staged,
                                                         exe.payload))
                    if cfg.upload_cache:
                        self.onserve.bus.emit(
                            "cache.hit" if staged_hit else "cache.miss",
                            layer="core", cache="staged",
                            request_id=ctx.request_id if ctx else None,
                            key=f"{site}:{staged}")
                    if not staged_hit:
                        if chunked:
                            pass  # payload streams off the temp copy
                        elif held_bytes == 0:
                            # Failover re-stage: the payload comes back
                            # into RAM for the second GridFTP trip.
                            host.allocate_memory(exe.size)
                            held_bytes = exe.size

                        def stage():
                            if chunked:
                                # Read the temp copy back for the
                                # GridFTP trip; the blob never re-enters
                                # RAM whole.
                                yield host.disk_read(exe.size)

                            def upload_try():
                                session = yield from self._ensure_session(
                                    ctx)
                                return (yield self.onserve.agent_stub
                                        .uploadExecutable(
                                            session=session, site=site,
                                            path=staged, data=exe.payload,
                                            ctx=ctx))

                            yield from retry_call(
                                self.sim, policy, upload_try, ctx=ctx,
                                label=f"upload:{site}",
                                on_retry=self._recover_session)
                            self.onserve.mark_staged(site, staged,
                                                     exe.payload)

                        flights = self.onserve.flights
                        digest = (self.onserve._digest(exe.payload)
                                  if flights.enabled else "")
                        # Keyed by replica: fabrics share one DbManager,
                        # and replica A's staging flight must never be
                        # joined by an invocation running on replica B
                        # (each replica stages over its own uplink).
                        yield from flights.do(
                            ("stage", self.onserve.replica, site, staged,
                             digest), stage, group="staging")
                    # The buffer is staged (or cached); collect it now.
                    if held_bytes:
                        host.release_memory(held_bytes)
                        held_bytes = 0
                report.upload += self.sim.now - mark

                # 4.+5. Job description generation + submission.
                mark = self.sim.now
                with span(ctx, "service:submit", site=site):
                    yield host.compute(cfg.submit_cpu, tag="service")
                    rsl = spec.to_rsl(job_tag=tag)

                    def submit_try():
                        session = yield from self._ensure_session(ctx)
                        return (yield self.onserve.agent_stub.submitJob(
                            session=session, site=site, rsl=rsl, ctx=ctx))

                    job_id = yield from retry_call(
                        self.sim, policy, submit_try, ctx=ctx,
                        label=f"submit:{site}",
                        on_retry=self._recover_session)
                report.job_id = job_id
                report.submit += self.sim.now - mark

                # 6. Wait for completion.
                mark = self.sim.now
                with span(ctx, "service:polling", job=job_id):
                    result = yield from self._await_output(
                        self._session, site, spec, tag, job_id, report, ctx)
                report.polling += self.sim.now - mark
                return result

            output = yield from self._run_with_failover(
                available, attempt_on_site, ctx)
            report.output_bytes = len(output)
            report.ok = True
            try:
                return output.decode("utf-8")
            except UnicodeDecodeError:
                return f"(binary output, {len(output)} bytes)"
        except Exception as exc:
            report.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            if held_bytes:
                host.release_memory(held_bytes)
            report.finished_at = self.sim.now
            from repro.core.datastructures import service_name_for
            self.onserve.record_invocation(
                service_name_for(self.record.name), report)

    def _run_with_failover(self, available: List[str], attempt,
                           ctx: Optional[RequestContext] = None
                           ) -> Generator[Event, None, bytes]:
        """Drive *attempt* over sites until one succeeds (or give up).

        Transient failures (``is_retryable``) trip the failed site's
        circuit breaker and move on to the next untried site — up to the
        configured ``failover_sites`` extra attempts, while the context
        deadline allows.  Permanent failures propagate immediately, as
        does the last transient failure once sites (or the budget) run
        out.  Success closes the site's breaker.
        """
        breakers = self.onserve.breakers
        max_sites = 1 + self.onserve.config.failover_sites
        tried: List[str] = []
        last_error: Optional[BaseException] = None
        while True:
            remaining = [s for s in available if s not in tried]
            try:
                site = self._choose_site(remaining)
            except InvocationError:
                if last_error is not None:
                    raise last_error from None
                raise
            try:
                result = yield from attempt(site)
            except Exception as exc:
                tried.append(site)
                if is_retryable(exc):
                    breakers.failure(site)
                else:
                    raise
                out_of_sites = not [s for s in available if s not in tried]
                past_deadline = (ctx is not None and ctx.deadline is not None
                                 and self.sim.now >= ctx.deadline)
                if len(tried) >= max_sites or out_of_sites or past_deadline:
                    raise
                last_error = exc
                self.onserve.bus.emit(
                    "core.failover", layer="core",
                    request_id=ctx.request_id if ctx else None,
                    service=self.record.name, from_site=site,
                    error=root_cause_name(exc))
                continue
            breakers.success(site)
            return result

    def _recover_session(self, exc: BaseException, attempt: int) -> None:
        """Retry hook: a dead credential means re-authenticate, not just
        repeat — drop the cached session so the next attempt logs on."""
        if root_cause_name(exc) in ("CredentialExpired",
                                    "AuthenticationFailed"):
            if self.onserve.config.coalesce:
                self.onserve.drop_agent_session(self._session)
            self._session = None
            self._session_expires = 0.0

    def _choose_site(self, sites: List[str]) -> str:
        """Apply the configured site-selection policy.

        The agent's listing is already MDS-ranked (most free cores
        first), so "best" is simply the head of the list.  Sites whose
        circuit breaker is open are skipped; when *every* candidate's
        circuit is open the invocation fails fast rather than queue up
        behind a grid that is known to be broken.
        """
        sites = [s for s in sites if s]
        if not sites:
            raise InvocationError("no grid site available")
        allowed = [s for s in sites
                   if self.onserve.breakers.allow(s)]
        if not allowed:
            raise InvocationError(
                f"no grid site available (circuit open for "
                f"{len(sites)} candidate(s))")
        sites = allowed
        policy = self.onserve.config.site_policy
        if policy == "round_robin":
            # Rotate over a *stable* ordering, not the load-ranked one.
            ordered = sorted(sites)
            site = ordered[self._rr_cursor % len(ordered)]
            self._rr_cursor += 1
            return site
        if policy == "random":
            rng = self.sim.rng.stream(f"site-policy:{self.record.name}")
            return rng.choice(sorted(sites))
        return sites[0]

    def _ensure_session(self, ctx: Optional[RequestContext] = None
                        ) -> Generator[Event, None, str]:
        cfg = self.onserve.config
        if cfg.coalesce:
            # Appliance-wide session, logons single-flighted across
            # every runtime (one MyProxy logon for N services).
            session = yield from self.onserve.ensure_agent_session(ctx)
            self._session = session
            self._session_expires = self.onserve.agent_session_expires()
            return session
        while True:
            if (self._session is not None
                    and self.sim.now < self._session_expires):
                return self._session
            if self._auth_pending is not None:
                # Someone else is already logging on; piggyback on it.
                yield self._auth_pending
                continue
            self._auth_pending = self.sim.event("auth-pending")
            try:
                self._session = yield self.onserve.agent_stub.authenticate(
                    username=cfg.grid_username,
                    passphrase=cfg.grid_passphrase, ctx=ctx)
                # Renew well before the delegated proxy actually expires.
                self._session_expires = self.sim.now + cfg.session_renewal
            finally:
                pending, self._auth_pending = self._auth_pending, None
                pending.succeed()
            return self._session

    def _await_output(self, session: str, site: str, spec: CyberaideJobSpec,
                      tag: str, job_id: str, report: InvocationReport,
                      ctx: Optional[RequestContext] = None
                      ) -> Generator[Event, None, bytes]:
        """Detect completion on one rung of the ladder, then fetch output.

        Rung precedence: clean status polling (ablation), push
        notification on a notify-capable site, the per-site PollMux
        (``datapath``), and the faithful tentative poll.  Every rung
        ends in the same tail: mark detection, classify a lost or
        unsuccessful job, fetch the final output once and write it to
        local disk.
        """
        cfg = self.onserve.config
        queue = self.onserve.notify_queue
        if cfg.status_supported:
            rung = self._detect_status
        elif queue is not None and queue.site_capable(site):
            rung = self._detect_notify
        elif cfg.datapath:
            rung = self._detect_mux
        else:
            rung = self._detect_tentative
        state, polls, batched, pushed, lost = yield from rung(
            session, site, spec.stdout_path(tag), job_id, ctx)
        report.polls += polls
        self._emit_detected(ctx, job_id, site, polls, batched=batched,
                            pushed=pushed)
        if lost:
            # The gatekeeper lost the job record — same classification
            # as the per-job path's raised lookup, so failover applies.
            raise JobNotFound(f"gatekeeper has no record of job {job_id!r}")
        if state != "done":
            # A JobError (retryable): a crash-killed job may well
            # succeed when resubmitted on another site.
            raise JobError(f"grid job {job_id} ended {state}")
        stub = self.onserve.agent_stub
        output = yield stub.fetchOutput(session=session, site=site,
                                        jobId=job_id, ctx=ctx)
        yield self.onserve.host.disk_write(len(output))
        if output and set(output) == {0}:
            raise JobError(
                f"grid job {job_id} produced no final output "
                f"(failed on the grid?)")
        return output

    # -- completion-detection rungs (each only detects) ------------------------

    def _detect_status(self, session: str, site: str, stdout_path: str,
                       job_id: str, ctx: Optional[RequestContext]
                       ) -> Detection:
        """Ablation: clean status polling until a terminal state."""
        cfg = self.onserve.config
        stub = self.onserve.agent_stub
        state, polls = yield poll_until(
            self.sim,
            poll_factory=lambda: stub.jobStatus(session=session, site=site,
                                                jobId=job_id, ctx=ctx),
            accept=lambda s: s in ("done", "failed", "canceled"),
            interval=cfg.poll_interval,
            timeout=cfg.watchdog_timeout)
        return state, polls, False, False, False

    def _detect_notify(self, session: str, site: str, stdout_path: str,
                       job_id: str, ctx: Optional[RequestContext]
                       ) -> Detection:
        """Push path: park on the notify subscription.

        The site's gatekeeper publishes the job's terminal state onto
        the durable queue; the waiter wakes one propagation delay after
        the job finished, under the same watchdog deadline as every
        other rung — zero poller exchanges.
        """
        with span(ctx, "notify:await", site=site, job=job_id):
            note = yield await_notification(
                self.sim, self.onserve.notify_queue, site, job_id,
                self.onserve.config.watchdog_timeout)
        return note["state"], 0, False, True, bool(note["error"])

    def _detect_mux(self, session: str, site: str, stdout_path: str,
                    job_id: str, ctx: Optional[RequestContext]
                    ) -> Detection:
        """Batched data path: park on the per-site PollMux, which runs
        one tentative poll covering every in-flight job on the site."""
        result, polls = yield await_mux(
            self.sim, self.onserve.poll_mux(site), job_id, stdout_path,
            self.onserve.config.watchdog_timeout)
        return "done", polls, True, False, bool(result["error"])

    def _detect_tentative(self, session: str, site: str, stdout_path: str,
                          job_id: str, ctx: Optional[RequestContext]
                          ) -> Detection:
        """Faithful workaround: tentatively fetch output every interval,
        writing each (partial) result to local disk, until the stdout
        file exists on the grid.  The last tentative fetch may predate
        completion, so the shared tail fetches the final output."""
        cfg = self.onserve.config
        host = self.onserve.host
        stub = self.onserve.agent_stub

        def poll():
            def round_trip() -> Generator[Event, None, bool]:
                data = yield stub.fetchOutput(session=session, site=site,
                                              jobId=job_id, ctx=ctx)
                if data:
                    # "the output of the running job is written to the
                    # hard disk" — every poll, the periodic write peaks.
                    yield host.disk_write(len(data))
                return (yield stub.outputReady(session=session, site=site,
                                               path=stdout_path, ctx=ctx))

            return self.sim.process(round_trip(), name="tentative-poll")

        _, polls = yield poll_until(
            self.sim,
            poll_factory=poll,
            accept=lambda ready: bool(ready),
            interval=cfg.poll_interval,
            timeout=cfg.watchdog_timeout)
        return "done", polls, False, False, False

    def _emit_detected(self, ctx: Optional[RequestContext], job_id: str,
                       site: str, polls: int, batched: bool,
                       pushed: bool = False) -> None:
        """Observational completion-detection marker (no sim events):
        correlated with the scheduler's ``sched.finish`` it yields the
        detection lag the datapath/notify ablations report."""
        self.onserve.bus.emit(
            "core.output_detected", layer="core",
            request_id=ctx.request_id if ctx else None,
            service=self.record.name, site=site, job_id=job_id,
            polls=polls, batched=batched, pushed=pushed)


def _argument(value: Any) -> str:
    """SOAP value -> RSL argument string."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, bytes):
        raise InvocationError("binary parameters cannot become RSL arguments")
    return str(value)
