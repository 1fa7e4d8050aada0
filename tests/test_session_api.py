"""The session API's contracts.

Two suites pin down the session front door:

* **equivalence** -- sessioned traffic (``Session.call`` / ``submit`` /
  ``submit_many``) with *no* QoS overrides produces the same result codes
  and the same final store state as the core calls a session wraps
  (``udr.pipeline.execute``, ``udr.dispatcher.submit``,
  ``udr.pipeline.execute_batch``) on seeded traces, across both dispatch
  modes;
* **deadline matrix** -- ``QoSProfile.deadline_ticks`` short-circuits
  expired work with ``TIME_LIMIT_EXCEEDED`` on every path (direct,
  dispatcher queue, batch fan-out, retry backoff) without consuming
  pipeline hops, while generous deadlines change nothing.
"""

import random

import pytest

from repro.api import (
    DEADLINE_TICK,
    Operation,
    Provision,
    QoSProfile,
    Read,
    Search,
    Write,
    as_request,
)
from repro.core import (
    ClientType,
    DispatchMode,
    Priority,
    RetryPolicy,
    UDRConfig,
)
from repro.core.pipeline import BatchItem
from repro.ldap import AddRequest, DeleteRequest, ModifyRequest, SearchRequest
from repro.ldap.operations import ResultCode
from repro.subscriber import SubscriberGenerator

from tests.conftest import build_udr, fe_site_for, run_to_completion

SUBSCRIBERS = 40


# ---------------------------------------------------------------- helpers

def seeded_operations(udr, profiles, seed, operations=30):
    """A random, order-insensitive typed-operation mix.

    Same shape rules as the batch-equivalence workload: at most one write
    per subscriber, deleted subscribers never otherwise addressed, created
    subscribers fresh -- so codes are comparable across admission orders.
    Returns ``(operation, client_type, site)`` triples.
    """
    rng = random.Random(seed)
    shuffled = list(profiles)
    rng.shuffle(shuffled)
    deletable = [shuffled.pop() for _ in range(4)]
    modifiable = [shuffled.pop() for _ in range(8)]
    readable = list(shuffled)
    fresh = SubscriberGenerator(udr.config.regions,
                                seed=seed + 9000).generate(5)
    ps_site = udr.topology.sites[0]
    triples = []
    for index in range(operations):
        choice = rng.random()
        if choice < 0.45 or not (modifiable or deletable or fresh):
            profile = rng.choice(readable)
            operation = (Search("msisdn", profile.identities.msisdn)
                         if index % 5 == 0
                         else Read(profile.identities.imsi))
            triples.append((operation, ClientType.APPLICATION_FE,
                            fe_site_for(udr, profile)))
        elif choice < 0.7 and modifiable:
            profile = modifiable.pop()
            triples.append((Write(profile.identities.imsi,
                                  {"servingMsc": f"msc-{seed}"}),
                            rng.choice([ClientType.APPLICATION_FE,
                                        ClientType.PROVISIONING]),
                            fe_site_for(udr, profile)))
        elif choice < 0.85 and fresh:
            profile = fresh.pop()
            triples.append((Provision.create(profile.to_record()),
                            ClientType.PROVISIONING, ps_site))
        elif deletable:
            profile = deletable.pop()
            triples.append((Provision.terminate(profile.identities.imsi),
                            ClientType.PROVISIONING, ps_site))
        else:
            profile = rng.choice(readable)
            triples.append((Read(profile.identities.imsi),
                            ClientType.APPLICATION_FE,
                            fe_site_for(udr, profile)))
    return triples


def store_state(udr):
    """Record values on every copy, after letting replication drain."""
    udr.sim.run_for(5.0)
    state = {}
    for set_name, replica_set in udr.replica_sets.items():
        for member in replica_set.member_names:
            copy = replica_set.copy_on(member)
            state[(set_name, member)] = {key: copy.store.get(key)
                                         for key in copy.store.keys()}
    return state


class SessionPool:
    """One session per ``(client type, site)``, mirroring real attachments."""

    def __init__(self, udr, qos=None):
        self.udr = udr
        self.qos = qos
        self._sessions = {}

    def session_for(self, client_type, site):
        key = (client_type, site)
        if key not in self._sessions:
            client = self.udr.attach(
                f"{client_type.value}@{site.name}", site,
                client_type=client_type, qos=self.qos)
            self._sessions[key] = client.session()
        return self._sessions[key]


# ------------------------------------------------------------- encoding

class TestOperationEncoding:
    def test_read_encodes_to_base_search(self):
        request = Read("123", attributes=("authKey",)).to_request()
        assert isinstance(request, SearchRequest)
        assert "123" in str(request.dn)
        assert request.attributes == ("authKey",)
        assert not request.is_write

    def test_search_encodes_identity_filter(self):
        request = Search("msisdn", "46700000001").to_request()
        assert isinstance(request, SearchRequest)
        assert "(msisdn=46700000001)" in request.filter_text

    def test_search_rejects_unknown_identity_type(self):
        with pytest.raises(ValueError):
            Search("iccid", "x")

    def test_write_encodes_to_modify(self):
        request = Write("123", {"servingMsc": "m"}).to_request()
        assert isinstance(request, ModifyRequest)
        assert request.changes == {"servingMsc": "m"}
        assert request.is_write

    def test_provision_create_and_terminate(self):
        create = Provision.create({"imsi": "123", "msisdn": "46"})
        assert isinstance(create.to_request(), AddRequest)
        terminate = Provision.terminate("123")
        assert isinstance(terminate.to_request(), DeleteRequest)
        with pytest.raises(ValueError):
            Provision()
        with pytest.raises(ValueError):
            Provision.create({"msisdn": "46"})

    def test_as_request_passthrough_and_rejection(self):
        request = Read("1").to_request()
        assert as_request(request) is request
        assert isinstance(as_request(Read("1")), SearchRequest)
        with pytest.raises(TypeError):
            as_request("not an operation")


# ---------------------------------------------------------- equivalence

class TestSessionEquivalence:
    def _core_direct(self, seed):
        udr, profiles = build_udr(subscribers=SUBSCRIBERS, seed=seed)
        codes = []
        for operation, client_type, site in seeded_operations(
                udr, profiles, seed):
            response = run_to_completion(
                udr, udr.pipeline.execute(operation.to_request(),
                                          client_type, site))
            codes.append(response.result_code.name)
        return codes, store_state(udr)

    def _session_direct(self, seed):
        udr, profiles = build_udr(subscribers=SUBSCRIBERS, seed=seed)
        pool = SessionPool(udr)
        codes = []
        for operation, client_type, site in seeded_operations(
                udr, profiles, seed):
            session = pool.session_for(client_type, site)
            response = run_to_completion(udr, session.call(operation))
            codes.append(response.result_code.name)
        return codes, store_state(udr)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_direct_call_matches_pipeline_execute(self, seed):
        core_codes, core_state = self._core_direct(seed)
        session_codes, session_state = self._session_direct(seed)
        assert session_codes == core_codes
        assert session_state == core_state
        assert "SUCCESS" in session_codes

    def _dispatcher_config(self, seed):
        return UDRConfig(seed=seed, dispatch_mode=DispatchMode.DISPATCHER,
                         batch_linger_ticks=5)

    def _run_dispatched(self, udr, triples, submit, handles):
        def arrivals():
            for operation, client_type, site in triples:
                yield udr.sim.timeout(0.002)
                handles.append(submit(operation, client_type, site))

        run_to_completion(udr, arrivals())

    @pytest.mark.parametrize("seed", [5])
    def test_session_submit_matches_dispatcher_submit(self, seed):
        core_udr, core_profiles = build_udr(
            self._dispatcher_config(seed), subscribers=SUBSCRIBERS, seed=seed)
        triples = seeded_operations(core_udr, core_profiles, seed)
        tickets = []
        self._run_dispatched(
            core_udr, triples,
            lambda op, client_type, site: core_udr.dispatcher.submit(
                op.to_request(), client_type, site), tickets)

        def wait_tickets():
            yield core_udr.sim.all_of([t.event for t in tickets])

        run_to_completion(core_udr, wait_tickets())
        core_codes = [t.event.value.result_code.name for t in tickets]
        core_state = store_state(core_udr)

        session_udr, session_profiles = build_udr(
            self._dispatcher_config(seed), subscribers=SUBSCRIBERS, seed=seed)
        pool = SessionPool(session_udr)
        futures = []
        self._run_dispatched(
            session_udr, seeded_operations(session_udr, session_profiles,
                                           seed),
            lambda op, client_type, site:
            pool.session_for(client_type, site).submit(op), futures)

        def drain():
            for future in futures:
                yield from future.wait()

        run_to_completion(session_udr, drain())
        session_codes = [f.result().result_code.name for f in futures]
        assert session_codes == core_codes
        assert store_state(session_udr) == core_state

    @pytest.mark.parametrize("seed", [11])
    def test_batch_matches_pipeline_execute_batch(self, seed):
        # Single-client batches (one PS at one site), so the core
        # BatchItem list and the session's submit_many describe the same
        # admission problem.
        core_udr, profiles = build_udr(subscribers=SUBSCRIBERS, seed=seed)
        operations = [Write(profile.identities.imsi,
                            {"svcBarPremium": bool(index % 2)})
                      for index, profile in enumerate(profiles[:16])]
        ps_site = core_udr.topology.sites[0]
        items = [BatchItem(operation.to_request(), ClientType.PROVISIONING,
                           ps_site) for operation in operations]
        responses = run_to_completion(core_udr,
                                      core_udr.pipeline.execute_batch(items))
        core_codes = [r.result_code.name for r in responses]
        core_state = store_state(core_udr)

        session_udr, _ = build_udr(subscribers=SUBSCRIBERS, seed=seed)
        client = session_udr.attach("ps", session_udr.topology.sites[0],
                                    client_type=ClientType.PROVISIONING)
        with client.session() as session:
            batch_responses = run_to_completion(
                session_udr, session.execute_batch(operations))
        assert [r.result_code.name for r in batch_responses] == core_codes
        assert store_state(session_udr) == core_state

    def test_pipeline_round_trip_matches_session(self):
        """One operation through the pipeline and through a session: same
        code, same entry payload."""
        udr, profiles = build_udr(subscribers=8)
        operation = Read(profiles[0].identities.imsi)
        site = udr.topology.sites[0]
        core = run_to_completion(
            udr, udr.pipeline.execute(operation.to_request(),
                                      ClientType.APPLICATION_FE, site))
        session = run_to_completion(
            udr, udr.attach("fe", site).session().call(operation))
        assert core.result_code is session.result_code
        assert core.entry.get("imsi") == session.entry.get("imsi")


# ------------------------------------------------------- deadline matrix

class TestDeadlineMatrix:
    def test_direct_zero_deadline_short_circuits(self):
        udr, profiles = build_udr(subscribers=8)
        client = udr.attach("fe", udr.topology.sites[0],
                            qos=QoSProfile(deadline_ticks=0))
        transfers_before = udr.network.stats.total_messages()
        response = run_to_completion(
            udr, client.session().call(Read(profiles[0].identities.imsi)))
        assert response.result_code is ResultCode.TIME_LIMIT_EXCEEDED
        assert response.latency == 0.0, "no pipeline hops were consumed"
        assert udr.network.stats.total_messages() == transfers_before
        udr.flush_metrics()
        assert udr.metrics.counter("api.deadline_expired") == 1

    def test_direct_generous_deadline_is_invisible(self):
        udr, profiles = build_udr(subscribers=8)
        operation = Read(profiles[0].identities.imsi)
        baseline = run_to_completion(
            udr, udr.pipeline.execute(operation.to_request(),
                                      ClientType.APPLICATION_FE,
                                      udr.topology.sites[0]))
        client = udr.attach("fe", udr.topology.sites[0],
                            qos=QoSProfile(deadline_ticks=60_000))
        response = run_to_completion(udr, client.session().call(operation))
        assert response.result_code is ResultCode.SUCCESS
        assert baseline.result_code is ResultCode.SUCCESS

    def test_dispatcher_expires_queued_tickets_at_wave_formation(self):
        config = UDRConfig(dispatch_mode=DispatchMode.DISPATCHER,
                           batch_linger_ticks=50)
        udr, profiles = build_udr(config, subscribers=8)
        client = udr.attach("fe", udr.topology.sites[0],
                            qos=QoSProfile(deadline_ticks=1))
        session = client.session()
        future = session.submit(Read(profiles[0].identities.imsi))
        response = run_to_completion(udr, future.wait())
        assert response.result_code is ResultCode.TIME_LIMIT_EXCEEDED
        assert "dispatch queue" in response.diagnostic_message
        assert udr.metrics.counter("dispatcher.deadline_expired") == 1
        # The expired ticket consumed no wave slot.
        assert udr.metrics.counter("dispatcher.dispatched") == 0

    def test_batch_deadline_short_circuits_fan_out(self):
        udr, profiles = build_udr(subscribers=8)
        client = udr.attach("ps", udr.topology.sites[0],
                            client_type=ClientType.PROVISIONING,
                            qos=QoSProfile(deadline_ticks=0))
        with client.session() as session:
            responses = run_to_completion(
                udr, session.execute_batch(
                    [Write(p.identities.imsi, {"svcBarPremium": True})
                     for p in profiles[:4]]))
        assert all(r.result_code is ResultCode.TIME_LIMIT_EXCEEDED
                   for r in responses)
        # The batch still answered (before admission), but no write ran.
        state = {key for rs in udr.replica_sets.values()
                 for key in rs.master_copy.store.keys()}
        assert state, "subscriber base still present"
        assert udr.metrics.counter("api.deadline_expired") == 4

    def test_deadline_cuts_retry_backoff(self):
        """A retryable failure with a deadline shorter than the backoff
        answers TIME_LIMIT_EXCEEDED instead of sleeping into expiry."""
        policy = RetryPolicy(max_retries=3, backoff_tick=0.05)
        udr, profiles = build_udr(subscribers=8)
        profile = profiles[0]
        element = udr.deployment.authoritative_lookup(
            "imsi", profile.identities.imsi)
        replica_set = udr.deployment.replica_set_of_element(element)
        for member in replica_set.member_names:
            udr.crash_element(member)
        client = udr.attach(
            "fe", udr.topology.sites[0],
            qos=QoSProfile(retry_policy=policy, deadline_ticks=20))
        response = run_to_completion(
            udr, client.session().call(Read(profile.identities.imsi)))
        assert response.result_code is ResultCode.TIME_LIMIT_EXCEEDED
        # The first attempt ran (and failed) before the backoff-vs-deadline
        # refusal, and the accounting must say so; only the backoff itself
        # was never slept.
        assert response.attempts == 1, "the failed first attempt counts"
        assert udr.sim.now < 0.01, "the backoff was never slept"

    def test_retry_policy_override_applies_to_single_operations(self):
        """Without a deadline the same session retries the transient
        failure -- per-session QoS brings retries to the sequential path,
        which a plain ``pipeline.execute`` call does not take."""
        policy = RetryPolicy(max_retries=2, backoff_tick=0.01)
        udr, profiles = build_udr(subscribers=8)
        profile = profiles[0]
        element = udr.deployment.authoritative_lookup(
            "imsi", profile.identities.imsi)
        replica_set = udr.deployment.replica_set_of_element(element)
        for member in replica_set.member_names:
            udr.crash_element(member)
        plain = run_to_completion(
            udr, udr.pipeline.execute(
                Read(profile.identities.imsi).to_request(),
                ClientType.APPLICATION_FE, udr.topology.sites[0]))
        assert plain.result_code is ResultCode.UNAVAILABLE
        assert plain.attempts == 0
        client = udr.attach("fe", udr.topology.sites[0],
                            qos=QoSProfile(retry_policy=policy))
        response = run_to_completion(
            udr, client.session().call(Read(profile.identities.imsi)))
        assert response.result_code is ResultCode.UNAVAILABLE
        assert response.attempts == policy.max_retries


# --------------------------------------------------- per-client metrics

class TestPerClientScoping:
    def test_completions_are_tagged_by_client_name(self):
        udr, profiles = build_udr(subscribers=8)
        hlr = udr.attach("hlr-fe-1", udr.topology.sites[0])
        ps = udr.attach("ps-1", udr.topology.sites[0],
                        client_type=ClientType.PROVISIONING)
        hlr_session, ps_session = hlr.session(), ps.session()
        for profile in profiles[:3]:
            run_to_completion(udr,
                              hlr_session.call(Read(profile.identities.imsi)))
        run_to_completion(udr, ps_session.call(
            Write(profiles[0].identities.imsi, {"svcBarPremium": True})))
        assert udr.metrics.counter("api.client.hlr-fe-1.requests") == 3
        assert udr.metrics.counter("api.client.ps-1.requests") == 1
        assert udr.metrics.latency("api.client.hlr-fe-1.latency").count == 3
        assert udr.metrics.latency("api.client.ps-1.latency").count == 1
        assert udr.metrics.counter("api.client.hlr-fe-1.failed") == 0

    def test_failures_count_per_client(self):
        udr, _profiles = build_udr(subscribers=8)
        client = udr.attach("fe", udr.topology.sites[0])
        response = run_to_completion(
            udr, client.session().call(Read("000000000000000")))
        assert not response.ok
        assert udr.metrics.counter("api.client.fe.failed") == 1


# ------------------------------------------------------ session lifecycle

class TestSessionLifecycle:
    def test_closed_session_rejects_new_work(self):
        udr, profiles = build_udr(subscribers=8)
        client = udr.attach("fe", udr.topology.sites[0])
        with client.session() as session:
            pass
        with pytest.raises(RuntimeError):
            session.submit(Read(profiles[0].identities.imsi))

    def test_abandoned_futures_are_counted(self):
        config = UDRConfig(dispatch_mode=DispatchMode.DISPATCHER,
                           batch_linger_ticks=50)
        udr, profiles = build_udr(config, subscribers=8)
        client = udr.attach("fe", udr.topology.sites[0])
        with client.session() as session:
            session.submit(Read(profiles[0].identities.imsi))
        assert udr.metrics.counter("api.session.abandoned") == 1

    def test_qos_layering(self):
        base = QoSProfile(priority=Priority.BULK, deadline_ticks=100)
        override = QoSProfile(deadline_ticks=10)
        layered = base.layered(override)
        assert layered.priority is Priority.BULK
        assert layered.deadline_ticks == 10
        assert base.layered(None) is base
        assert base.deadline_at(1.0) == 1.0 + 100 * DEADLINE_TICK
