"""The shared completion-detection tail, exercised through every rung.

``GridServiceRuntime._await_output`` picks one rung of the ladder —
clean status polling, push notification, the batched PollMux or the
faithful tentative poll — and then runs one tail for all of them:
mark detection, classify a lost or unsuccessful job, fetch the final
output once.  Each rung must keep its own detection marker fields and
its own failure classification.
"""

import pytest

from repro.core import OnServeConfig, deploy_onserve, discover_and_invoke
from repro.errors import SoapFault
from repro.faults import FaultSpec
from repro.grid import build_testbed
from repro.simkernel import Simulator
from repro.telemetry.events import bus
from repro.units import KB, Mbps
from repro.workloads import make_payload

JOB = "ncsa-job-00001"

#: rung -> (config flags, batched, pushed, failure, root cause, error).
RUNGS = {
    "status": (dict(status_supported=True), False, False, "node",
               "JobError", f"JobError: grid job {JOB} ended failed"),
    "notify": (dict(datapath=True, notify=True), False, True, "lost",
               "JobNotFound",
               f"JobNotFound: gatekeeper has no record of job {JOB!r}"),
    "mux": (dict(datapath=True), True, False, "lost", "JobNotFound",
            f"JobNotFound: gatekeeper has no record of job {JOB!r}"),
    "tentative": (dict(), False, False, "node+stdout", "JobError",
                  f"JobError: grid job {JOB} produced no final output "
                  f"(failed on the grid?)"),
}


def deploy_and_upload(flags):
    sim = Simulator(seed=0)
    tb = build_testbed(sim=sim, n_sites=1, nodes_per_site=2,
                       cores_per_node=4, appliance_uplink=Mbps(10),
                       n_users=1)
    config = OnServeConfig(poll_interval=5.0, failover_sites=0, **flags)
    stack = sim.run(until=deploy_onserve(tb, config))
    payload = make_payload("fixed", size=int(KB(2)), runtime="60",
                           output_bytes="64")
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "job.sh", payload))
    return sim, tb, stack


def last_report(stack):
    return next(iter(stack.onserve.runtimes.values())).reports[-1]


def arm_failure(sim, tb, failure):
    """Make the first job end badly: lost by the LRM, or its node killed
    (optionally leaving a truncated stdout file behind on the grid)."""
    if failure == "lost":
        tb.install_faults([FaultSpec("gram.lost_job", max_fires=1)])
        return
    site = tb.sites[0]

    def saboteur():
        yield sim.timeout(40.0)
        victims = site.fail_node(site.pool.nodes[0].name)
        assert victims == [JOB]
        if failure == "node+stdout":
            site.store_file(site.get_job(JOB).description.stdout, b"")

    sim.process(saboteur())


@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_every_rung_shares_one_detection_tail(rung):
    flags, batched, pushed, failure, cause, error = RUNGS[rung]

    # A normal job: the output comes back, detected exactly once.
    sim, tb, stack = deploy_and_upload(flags)
    out = sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                            "Job%"))
    assert out.startswith("fixed-profile output")
    report = last_report(stack)
    assert report.ok and report.output_bytes == 64
    detected = bus(sim).events(kind="core.output_detected")
    assert len(detected) == 1
    fields = detected[0].fields
    assert (fields["batched"], fields["pushed"]) == (batched, pushed)
    assert fields["polls"] == report.polls
    assert (report.polls == 0) == pushed

    # A failed or lost job: the rung's own exception type and message.
    sim, tb, stack = deploy_and_upload(flags)
    arm_failure(sim, tb, failure)
    with pytest.raises(SoapFault) as exc_info:
        sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                          "Job%"))
    assert exc_info.value.root_cause == cause
    assert last_report(stack).error == error
    assert len(bus(sim).events(kind="core.output_detected")) == 1
