"""The client-side invocation workflow (§VII.B, steps 1-2).

"First of all, the user examines the jUDDI registry to find the
appropriate service.  Once the service has been discovered, a Web
service client may be created by using the corresponding WSDL document."

:func:`discover_and_invoke` performs exactly that: a *real* SOAP call to
the registry's inquiry service, WSDL fetch, ``wsimport``-style stub
generation, and the ``execute`` call — all from the user's host, with
every message travelling the simulated network.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING, Tuple

from repro.core.context import RequestContext, span
from repro.errors import ServiceNotFound, SoapFault
from repro.simkernel.events import Event
from repro.simkernel.process import Process
from repro.ws.client import WsClient, generate_stub
from repro.ws.uddi_service import parse_binding_lines, parse_service_lines

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fabric import OnServeStack

__all__ = ["discover_service", "discover_and_invoke"]


def discover_service(stack: "OnServeStack", client: WsClient,
                     name_pattern: str,
                     ctx: Optional[RequestContext] = None) -> Process:
    """UDDI inquiry from the client's host (over real SOAP).

    The process-event's value is ``(service_name, endpoint,
    wsdl_location)`` of the best (first) match.  A warm
    :class:`~repro.ws.cache.ClientCache` on the client answers without
    touching the network at all.
    """
    inquiry_endpoint = stack.inquiry_endpoint()

    def op() -> Generator[Event, None, Tuple[str, str, str]]:
        if client.cache is not None:
            cached = client.cache.lookup_discovery(name_pattern)
            if cached is not None:
                return cached
        with span(ctx, "uddi:discover", pattern=name_pattern):
            listing = yield client.call(inquiry_endpoint, "findService",
                                        ctx=ctx, pattern=name_pattern)
            hits = parse_service_lines(listing)
            if not hits:
                raise ServiceNotFound(
                    f"UDDI has no service matching {name_pattern!r}")
            service = hits[0]
            raw = yield client.call(inquiry_endpoint, "getBindings",
                                    ctx=ctx, serviceKey=service["key"])
            bindings = parse_binding_lines(raw)
            if not bindings:
                raise ServiceNotFound(
                    f"UDDI service {service['name']!r} has no binding")
        triple = (service["name"], bindings[0]["access_point"],
                  bindings[0]["wsdl_location"])
        if client.cache is not None:
            client.cache.store_discovery(name_pattern, triple)
        return triple

    return client.sim.process(op(), name=f"discover:{name_pattern}")


def discover_and_invoke(stack: "OnServeStack", client: WsClient,
                        name_pattern: str,
                        ctx: Optional[RequestContext] = None,
                        **params: Any) -> Process:
    """The full §VII.B client workflow; the value is execute()'s result.

    A request-fabric entry point: mints a :class:`RequestContext` for
    the whole discover → wsimport → execute workflow unless the caller
    brought one, so the resulting trace covers every hop down to GRAM.
    """
    if ctx is None:
        ctx = RequestContext.create(client.sim,
                                    principal=client.host.name)

    def op() -> Generator[Event, None, str]:
        # One re-resolve on replica failover: a ReplicaDown fault means
        # the bound endpoint named a dead replica, so the cached
        # discovery/WSDL entries for it are evicted and the whole
        # resolve→bind→execute sequence re-runs once against whatever
        # the registry/router answers now.  Any other fault — and a
        # second ReplicaDown — propagates unchanged, so the fault-free
        # path and every pre-existing failure mode are untouched.
        rebound = False
        while True:
            _name, endpoint, _wsdl_loc = yield discover_service(
                stack, client, name_pattern, ctx=ctx)
            cache = client.cache
            document = (cache.lookup_wsdl(endpoint)
                        if cache is not None else None)
            if document is None:
                document = yield client.fetch_wsdl(endpoint, ctx=ctx)
                if cache is not None:
                    cache.store_wsdl(endpoint, document)
            stub_class = (cache.stub_class(document) if cache is not None
                          else generate_stub(document))
            stub = stub_class(client)
            try:
                result = yield stub.execute(ctx=ctx, **params)
            except SoapFault as fault:
                if fault.root_cause != "ReplicaDown" or rebound:
                    raise
                rebound = True
                if cache is not None:
                    cache.evict_endpoint(endpoint)
                continue
            return result

    return client.sim.process(op(), name=f"invoke:{name_pattern}")
