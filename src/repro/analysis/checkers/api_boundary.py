"""API boundary: experiments and examples ride the typed session API.

The AST pass resolves import origins, so aliased imports (``from repro.
ldap.operations import SearchRequest as SR``) are caught and commented-out
code is not.  ``scripts/reprolint.py`` runs it with the other checkers.

``API001``
    Raw LDAP request construction (``SearchRequest(...)``,
    ``ModifyRequest``, ``AddRequest``, ``DeleteRequest``, ``LdapRequest``)
    inside the policed trees.  The LDAP encoding lives only in
    ``api/operations.py`` -- workload code issues typed
    ``Read``/``Search``/``Write``/``Provision`` operations.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.checkers.base import Checker
from repro.analysis.findings import Finding
from repro.analysis.imports import attribute_chain

#: Trees where raw requests are forbidden.
POLICED_PREFIXES = ("src/repro/experiments/", "examples/")

#: Raw-request constructors (defined in repro/ldap/operations.py).
REQUEST_CLASSES = {"SearchRequest", "ModifyRequest", "AddRequest",
                   "DeleteRequest", "LdapRequest"}


class ApiBoundaryChecker(Checker):

    RULES = {
        "API001": "raw LDAP request construction outside the API layer",
    }

    def check(self, module) -> Iterable[Finding]:
        if not module.rel_path.startswith(POLICED_PREFIXES):
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_raw_request(module, node))
        return findings

    def _check_raw_request(self, module,
                           node: ast.Call) -> Iterable[Finding]:
        name = self._request_class_name(module, node.func)
        if name is None:
            return
        yield Finding(
            rule="API001", path=module.rel_path, line=node.lineno,
            message=f"raw {name} construction bypasses the typed "
                    f"session API",
            hint="issue a typed repro.api operation "
                 "(Read/Search/Write/Provision) through a session")

    def _request_class_name(self, module, func: ast.expr):
        """The request class a call target resolves to, alias-aware."""
        target = module.imports.resolve_call_target(func)
        if target is not None:
            leaf = target.split(".")[-1]
            if leaf in REQUEST_CLASSES and \
                    target.startswith("repro.ldap"):
                return leaf
            if target.startswith("repro.") and leaf in REQUEST_CLASSES:
                return leaf
        # Unresolved surface spelling (star import, helper-built alias):
        # fall back to the literal name.
        chain = attribute_chain(func)
        if chain and chain[-1] in REQUEST_CLASSES:
            return chain[-1]
        return None
