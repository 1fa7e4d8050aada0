"""The unified client API: typed operations, sessions, QoS, futures.

Every workload enters the UDR through this package.  A caller *attaches* a
named client to a deployment (``udr.attach(name, site, qos=...)``), opens a
:class:`~repro.api.session.Session` on it, and issues typed
:class:`~repro.api.operations.Operation` requests -- ``Read``, ``Search``,
``Write``, ``Provision`` -- instead of hand-building LDAP request objects:

* ``session.call(op)`` is the blocking path, routed by
  ``UDRConfig.dispatch_mode``;
* ``session.submit(op)`` returns a :class:`~repro.api.session.ResponseFuture`
  immediately;
* ``session.submit_many(ops)`` carries a whole list through one batched
  admission, one future per operation.

A per-session :class:`~repro.api.qos.QoSProfile` (priority class, retry
policy, deadline ticks) overrides the global ``UDRConfig`` knobs and flows
with every operation through dispatcher wave formation and the pipeline's
retry stage, so an expired operation short-circuits with
``TIME_LIMIT_EXCEEDED`` instead of consuming pipeline hops.

This is the only way in: ``UDRNetworkFunction`` issues no requests of its
own.  Code that must drive the core below the session layer (mixed-client
batches, equivalence tests) names the layer it calls --
``udr.pipeline.execute`` / ``execute_batch`` or ``udr.dispatcher.submit``.
"""

from repro.api.operations import (
    Operation,
    Provision,
    Read,
    Search,
    Write,
    as_request,
)
from repro.api.qos import DEADLINE_TICK, QoSProfile
from repro.api.session import ResponseFuture, Session, UDRClient

__all__ = [
    "DEADLINE_TICK",
    "Operation",
    "Provision",
    "QoSProfile",
    "Read",
    "ResponseFuture",
    "Search",
    "Session",
    "UDRClient",
    "Write",
    "as_request",
]
