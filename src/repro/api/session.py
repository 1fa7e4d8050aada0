"""Client handles, sessions and response futures: the one front door.

:class:`UDRClient` is a per-attachment handle -- a named client bound to a
site and a client type, obtained from
:meth:`repro.core.udr.UDRNetworkFunction.attach`.  A client opens
:class:`Session`\\ s (context managers); a session issues typed
:class:`~repro.api.operations.Operation`\\ s and returns
:class:`ResponseFuture`\\ s.  Each session call wraps one core call:

============================  ===============================================
session                       core call it wraps
============================  ===============================================
``session.call(op)``          ``udr.pipeline.execute``, a one-slot wave
                              (``DIRECT``), or ``udr.dispatcher.submit``
                              and wait (``DISPATCHER``)
``session.submit(op)``        the same, returning a future at once
``session.submit_many(ops)``  ``udr.pipeline.execute_batch`` -> futures
``session.execute_batch``     ``udr.pipeline.execute_batch`` -> responses
============================  ===============================================

Routing follows ``UDRConfig.dispatch_mode``: under ``DISPATCHER`` a submit
enqueues into the arrival-driven batch dispatcher (the client's name is the
*source tag*, so all of a session's operations completing in one wave share
a single grouped response event); under ``DIRECT`` a submit runs the
request's one-slot wave in its own simulation process and ``call`` runs
it inline -- bit-for-bit ``udr.pipeline.execute`` when the session carries
no QoS overrides.

The session's :class:`~repro.api.qos.QoSProfile` stamps every operation
with its priority class, retry policy and absolute deadline; per-operation
profiles layer on top.  A profile carrying a
:class:`~repro.core.config.RateLimit` arms token-bucket admission on the
client: over-quota operations are answered ``BUSY`` at submit, before any
queue or pipeline work (``api.admission.rejected`` / ``.throttled``).
Completions are recorded per client under the ``api.client.<name>.*``
metric names, so experiments can split latency and outcome distributions
by who issued the traffic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import ClientType, DispatchMode, RateLimit
from repro.core.pipeline import BatchItem
from repro.ldap.operations import LdapResponse, ResultCode
from repro.api.operations import as_request
from repro.api.qos import QoSProfile


class ResponseFuture:
    """Completion handle of one sessioned operation.

    ``done`` / ``response`` are inspectable at any time; a client process
    waits with ``response = yield from future.wait()``.  The future resolves
    through whichever machinery carried the operation: a dispatcher ticket
    (grouped source events), the shared process of a ``submit_many`` batch,
    or the operation's own pipeline process under ``DIRECT`` dispatch.
    """

    __slots__ = ("session", "operation", "request", "submitted_at",
                 "deadline", "_ticket", "_process", "_response",
                 "_settled_at")

    def __init__(self, session: "Session", operation, request,
                 submitted_at: float, deadline: Optional[float]):
        self.session = session
        self.operation = operation
        self.request = request
        self.submitted_at = submitted_at
        self.deadline = deadline
        self._ticket = None
        self._process = None
        self._response: Optional[LdapResponse] = None
        self._settled_at: Optional[float] = None

    @property
    def done(self) -> bool:
        if self._response is None and self._ticket is not None and \
                self._ticket.response is not None:
            self._settle(self._ticket.response)
        return self._response is not None

    @property
    def response(self) -> Optional[LdapResponse]:
        """The response, or ``None`` while in flight."""
        if not self.done:
            return None
        return self._response

    def result(self) -> LdapResponse:
        """The response; raises if the future has not resolved yet."""
        if not self.done:
            raise RuntimeError("operation still in flight; "
                               "yield from future.wait() first")
        return self._response

    @property
    def completed_at(self) -> Optional[float]:
        """Virtual time the operation completed (``None`` in flight).

        The dispatcher stamps its tickets at wave completion, so a lazy
        settle (nobody waited yet) still reports the true instant.
        """
        if self._ticket is not None:
            return self._ticket.completed_at
        return self._settled_at

    @property
    def latency(self) -> Optional[float]:
        """Client-perceived latency: submit to completion, queue included.

        On the dispatcher path this is the ticket's enqueue-to-response
        span (wave lingering included); on the direct/batched paths it is
        the pipeline-reported latency, whose clock also starts at submit.
        ``None`` while in flight.
        """
        if self._ticket is not None and self._ticket.completed_at is not None:
            return self._ticket.completed_at - self.submitted_at
        if self.done:
            return self._response.latency
        return None

    def wait(self):
        """Generator: block until resolved, return the response."""
        if self.done:
            return self._response
        if self._ticket is not None:
            dispatcher = self.session.client.udr.dispatcher
            while self._ticket.response is None:
                yield dispatcher.wait_event(self._ticket)
            self._settle(self._ticket.response)
            return self._response
        yield self._process
        # The driving process settles every future it carried before it
        # finishes, so reaching this point means the response is in.
        return self._response

    def _settle(self, response: LdapResponse) -> None:
        if self._response is not None:
            return
        self._response = response
        self._settled_at = self.session.client.sim.now
        self.session._completed(self, response)

    def __repr__(self) -> str:
        state = (self._response.result_code.name if self._response is not None
                 else "pending")
        return (f"<ResponseFuture {type(self.operation).__name__.lower()} "
                f"{state} submitted_at={self.submitted_at:.6f}>")


class Session:
    """One client's stream of operations under one QoS profile.

    A context manager: opening is free, closing counts still-unresolved
    futures in ``api.session.abandoned`` (a leak detector -- clients should
    ``yield from session.drain()`` before leaving the block).  Sessions are
    cheap; a long-lived actor (front-end, provisioning system) keeps one
    open for its lifetime.
    """

    def __init__(self, client: "UDRClient", qos: QoSProfile):
        self.client = client
        self.qos = qos
        #: In-flight futures only (resolved ones are dropped immediately,
        #: so a long-lived front-end session stays O(concurrency), not
        #: O(lifetime)).
        self._outstanding: Dict[int, ResponseFuture] = {}
        self.submitted = 0
        self.completed = 0
        self.closed = False

    # -- context management --------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        # .done settles tickets that completed without anyone waiting, so
        # only genuinely unresolved work counts as abandoned.
        abandoned = sum(1 for future in list(self._outstanding.values())
                        if not future.done)
        if abandoned:
            self.client.metrics.increment("api.session.abandoned", abandoned)

    # -- issuing operations --------------------------------------------------

    def submit(self, operation, qos: Optional[QoSProfile] = None
               ) -> ResponseFuture:
        """Issue one operation without waiting; returns its future.

        Under ``DISPATCHER`` dispatch the operation joins the arrival
        stream (wave formation, priority overtaking, deadline expiry at
        the queue); under ``DIRECT`` it runs the pipeline in its own
        process, concurrent with the caller.

        With a :class:`~repro.core.config.RateLimit` in the effective QoS
        profile, admission is checked *here*: an over-quota operation is
        answered ``BUSY`` immediately (an already-settled future) and never
        reaches the dispatcher queue or the pipeline.
        """
        effective = self.qos.layered(qos)
        future = self._make_future(operation, effective)
        client = self.client
        if effective.rate_limit is not None and \
                not client._admit(effective.rate_limit):
            self._reject_over_quota(future)
            return future
        if client.config.dispatch_mode is DispatchMode.DISPATCHER:
            future._ticket = client.udr.dispatcher.submit(
                future.request, client.client_type, client.site,
                priority=effective.priority, source=client.name,
                deadline=future.deadline,
                retry_policy=effective.retry_policy)
        else:
            future._process = client.sim.process(
                self._drive_single(future, effective),
                name=f"api:{client.name}")
        return future

    def call(self, operation, qos: Optional[QoSProfile] = None):
        """Generator: issue one operation and wait for its response."""
        if self.client.config.dispatch_mode is DispatchMode.DISPATCHER:
            future = self.submit(operation, qos)
            response = yield from future.wait()
            return response
        effective = self.qos.layered(qos)
        future = self._make_future(operation, effective)
        if effective.rate_limit is not None and \
                not self.client._admit(effective.rate_limit):
            self._reject_over_quota(future)
            return future.result()
        response = yield from self._execute(future, effective)
        future._settle(response)
        return response

    def submit_many(self, operations: Sequence,
                    qos: Optional[QoSProfile] = None) -> List[ResponseFuture]:
        """Issue a list of operations as one batched admission.

        The whole list rides ``OperationPipeline.execute_batch`` -- shared
        PoA/LDAP/locate hops, priority-ordered waves -- in a single driving
        process; each operation still gets its own future, resolved when
        the batch completes.
        """
        effective = self.qos.layered(qos)
        futures = [self._make_future(operation, effective)
                   for operation in operations]
        if not futures:
            return futures
        admitted = futures
        if effective.rate_limit is not None:
            admitted = []
            for future in futures:
                if self.client._admit(effective.rate_limit):
                    admitted.append(future)
                else:
                    self._reject_over_quota(future)
        if not admitted:
            return futures
        process = self.client.sim.process(
            self._drive_batch(admitted, effective),
            name=f"api-batch:{self.client.name}")
        for future in admitted:
            future._process = process
        return futures

    def execute_batch(self, operations: Sequence,
                      qos: Optional[QoSProfile] = None):
        """Generator: run a batch inline and return the response list."""
        futures = self.submit_many(operations, qos)
        responses = []
        for future in futures:
            response = yield from future.wait()
            responses.append(response)
        return responses

    def search_pages(self, operation, qos: Optional[QoSProfile] = None,
                     max_pages: Optional[int] = None):
        """Generator: drive a keyset-paged search page by page.

        ``operation`` is a paged :meth:`~repro.api.operations.Search.scoped`
        operation (``page_size`` set).  Each page rides :meth:`submit` -- so
        pages are individually dispatched waves, futures, deadlines and all
        -- and the next page is requested with the previous response's
        cursor until the result set is drained (or ``max_pages`` is hit).
        Returns the list of page responses, in order.
        """
        pages: List[LdapResponse] = []
        current = operation
        while current is not None:
            future = self.submit(current, qos)
            response = yield from future.wait()
            pages.append(response)
            if not response.ok:
                break
            if max_pages is not None and len(pages) >= max_pages:
                break
            current = current.next_page(response)
        return pages

    def drain(self):
        """Generator: wait until every in-flight future resolved."""
        while self._outstanding:
            for future in list(self._outstanding.values()):
                yield from future.wait()
        return self.completed

    # -- audit / reconciliation surface ---------------------------------------

    def history(self, identity: str, identity_type: str = "imsi"):
        """The audit trail of one subscriber: who/what/when per mutation.

        Answers from the CDC plane's
        :class:`~repro.cdc.history.HistoryStore` (an operator console
        query, not a simulated LDAP operation): the list of
        :class:`~repro.cdc.history.HistoryEntry` for the record the
        identity resolves to, oldest first -- empty when the identity is
        unknown.  Requires ``UDRConfig.cdc``; raises ``RuntimeError``
        otherwise, so a missing audit plane fails loudly instead of
        answering "no history".
        """
        store = self.client.udr.history
        if store is None:
            raise RuntimeError(
                "audit history is not enabled (set UDRConfig.cdc)")
        self.client.metrics.increment("api.history.queries")
        return store.history_of_identity(identity_type, identity)

    def reconciliation_status(self) -> Dict[str, object]:
        """The reconciler's per-round status snapshot (operator console).

        ``{"enabled": False}`` when the deployment runs without a
        reconciler; otherwise the round count, repair-log length and the
        ``reconciliation.*`` counters as of the last completed round.
        """
        self.client.metrics.increment("api.reconciliation.status_queries")
        reconciler = getattr(self.client.udr, "reconciler", None)
        if reconciler is None:
            return {"enabled": False}
        return reconciler.status()

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    # -- plumbing -------------------------------------------------------------

    def _make_future(self, operation, effective: QoSProfile) -> ResponseFuture:
        if self.closed:
            raise RuntimeError("session is closed")
        client = self.client
        future = ResponseFuture(self, operation, as_request(operation),
                                client.sim.now,
                                effective.deadline_at(client.sim.now))
        self._outstanding[id(future)] = future
        self.submitted += 1
        client.metrics.increment(client._requests_counter)
        return future

    def _reject_over_quota(self, future: ResponseFuture) -> None:
        """Settle ``future`` with the immediate ``BUSY`` admission answer."""
        self._reject_over_quota_count()
        future._settle(LdapResponse(
            result_code=ResultCode.BUSY,
            request=future.request,
            diagnostic_message="admission quota exceeded",
            latency=0.0))

    def _reject_over_quota_count(self) -> None:
        metrics = self.client.metrics
        metrics.increment("api.admission.rejected")
        metrics.increment(self.client._rejected_counter)

    def _execute(self, future: ResponseFuture, effective: QoSProfile):
        """The pipeline generator that answers one ``DIRECT`` operation."""
        client = self.client
        return client.udr.pipeline.execute(
            future.request, client.client_type, client.site,
            priority=effective.priority, deadline=future.deadline,
            retry_policy=effective.retry_policy)

    def _drive_single(self, future: ResponseFuture, effective: QoSProfile):
        response = yield from self._execute(future, effective)
        future._settle(response)
        return response

    def _drive_batch(self, futures: List[ResponseFuture],
                     effective: QoSProfile):
        client = self.client
        items = [BatchItem(future.request, client.client_type, client.site,
                           priority=effective.priority,
                           deadline=future.deadline,
                           retry_policy=effective.retry_policy)
                 for future in futures]
        responses = yield from client.udr.pipeline.execute_batch(items)
        for future, response in zip(futures, responses):
            future._settle(response)
        return responses

    def _completed(self, future: ResponseFuture,
                   response: LdapResponse) -> None:
        """Per-client metric scoping: every completion is tagged with the
        attachment name, so one registry splits cleanly by client."""
        self._outstanding.pop(id(future), None)
        self.completed += 1
        client = self.client
        # One clock for every path: submit-to-completion (queue wait
        # included on the dispatcher path), not the pipeline's wave-start
        # clock -- so the per-client series is comparable across paths and
        # includes what expired tickets spent queued.
        latency = future.latency
        client._latency_recorder.record(
            latency if latency is not None else response.latency)
        # Tickets the dispatcher expired in its queue were already counted
        # under this client's scope at expiry time (the dispatcher knows
        # the source tag); counting again at settle would double them.
        ticket = future._ticket
        if not response.ok and \
                not (ticket is not None and ticket.expired_in_queue):
            client.metrics.increment(client._failed_counter)

    def __repr__(self) -> str:
        return (f"<Session client={self.client.name!r} "
                f"submitted={self.submitted} "
                f"outstanding={self.outstanding}>")


class UDRClient:
    """A named client attachment: one caller's identity at the front door.

    Bound to a site (admission always starts from there) and a client type
    (the paper's FE/PS read-policy split); carries the default
    :class:`~repro.api.qos.QoSProfile` of every session it opens.  Obtained
    via :meth:`repro.core.udr.UDRNetworkFunction.attach`.
    """

    def __init__(self, udr, name: str, site,
                 client_type: ClientType = ClientType.APPLICATION_FE,
                 qos: Optional[QoSProfile] = None):
        self.udr = udr
        self.name = name
        self.site = site
        self.client_type = client_type
        self.qos = qos or QoSProfile()
        # Precomputed metric handles: the session hot path records one
        # counter and one latency sample per operation.
        self._requests_counter = f"api.client.{name}.requests"
        self._failed_counter = f"api.client.{name}.failed"
        self._rejected_counter = f"api.client.{name}.rejected"
        self._latency_recorder = udr.metrics.latency(
            f"api.client.{name}.latency")
        # Token-bucket admission state (QoSProfile.rate_limit).  One bucket
        # per *client*, shared by all its sessions: the quota bounds the
        # caller's aggregate rate, which is the whole point of admission
        # control.  Initialised full on first use.
        self._bucket_tokens: Optional[float] = None
        self._bucket_refilled_at = 0.0
        self._throttled = False

    def _admit(self, limit: RateLimit) -> bool:
        """Spend one admission token; False answers the operation ``BUSY``.

        The bucket refills continuously at ``limit.rate_per_second``
        (virtual time) up to ``limit.burst`` tokens.  Entering the
        over-quota state (the first rejection after an admitted operation)
        counts one ``api.admission.throttled`` episode; every rejected
        operation counts in ``api.admission.rejected`` and the client's
        ``api.client.<name>.rejected`` scope (recorded by the caller).
        """
        now = self.sim.now
        if self._bucket_tokens is None:
            self._bucket_tokens = float(limit.burst)
        else:
            self._bucket_tokens = min(
                float(limit.burst),
                self._bucket_tokens
                + (now - self._bucket_refilled_at) * limit.rate_per_second)
        self._bucket_refilled_at = now
        if self._bucket_tokens >= 1.0:
            self._bucket_tokens -= 1.0
            self._throttled = False
            return True
        if not self._throttled:
            self._throttled = True
            self.metrics.increment("api.admission.throttled")
        return False

    # -- deployment plumbing (delegates, so sessions stay import-light) -------

    @property
    def sim(self):
        return self.udr.sim

    @property
    def config(self):
        return self.udr.config

    @property
    def metrics(self):
        return self.udr.metrics

    def session(self, qos: Optional[QoSProfile] = None) -> Session:
        """Open a session; ``qos`` layers over the client's profile."""
        return Session(self, self.qos.layered(qos))

    def __repr__(self) -> str:
        return (f"<UDRClient {self.name!r} site={self.site} "
                f"type={self.client_type.value} qos={self.qos}>")
