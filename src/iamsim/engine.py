"""Authorization engine: decides requests against an organization.

Evaluation follows the closed-world discipline of the policy language.
Every statement in scope is consulted and recorded in the decision trace:
identity statements come from the permission sets resolved for the
requesting user in the acting account, resource statements from the target
resource's attached policy (gated by whether their principals cover the
requester). The verdict then falls out of four rules, in order:

1. any matching Deny on either side denies (explicit deny),
2. same-account requests are allowed by a matching identity OR resource
   Allow,
3. cross-account requests need a matching identity Allow AND a resource
   side grant (matching resource Allow, or a share covering the acting
   account),
4. otherwise the request is implicitly denied.

Resources not registered in the organization are treated as owned by the
acting account with no attached policy, so identity-only setups work
without registering everything.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .audit import AuditEvent, EventKind
from .org import Organization, resolve_permission_set_ids, shares_covering
from .policy import Effect, PolicyDocument, Statement, Verdict, condition_holds, split_action
from .textin import shown

# perfbench/tracer.py (its SITES table) patches action_matches, resource_matches
# and condition_holds in this module and fails at install if one is missing.
# Statements match through their own lowered patterns, so the first two stay
# bound here unused.
from .policy import action_matches, resource_matches  # noqa: F401

#: Base timestamp for synthetic audit events emitted by batch simulation.
#: Requests carry no time of their own; a fixed epoch plus one second per
#: request keeps emitted logs byte-reproducible.
SIMULATION_EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)


class RequestError(ValueError):
    """An access request is malformed or references unknown entities."""


class Reason(str, Enum):
    EXPLICIT_DENY = "ExplicitDeny"
    IMPLICIT_DENY = "ImplicitDeny"
    SAME_ACCOUNT_ALLOW = "SameAccountAllow"
    CROSS_ACCOUNT_ALLOW = "CrossAccountAllow"


_ALLOW_REASONS = (Reason.SAME_ACCOUNT_ALLOW, Reason.CROSS_ACCOUNT_ALLOW)


@dataclass(frozen=True)
class AccessRequest:
    """One authorization question: may ``user``, acting in ``account``,
    perform ``action`` on ``resource`` under ``context``?

    The four names must be ``str`` and ``context`` must map ``str`` to
    ``str``; anything else is a :class:`RequestError` naming the field.
    """

    user: str
    account: str
    action: str
    resource: str
    context: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("user", "account", "action", "resource"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise RequestError(f"request field {name!r} must be a string, not {type(value).__name__}")
        if not isinstance(self.context, Mapping) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in self.context.items()
        ):
            raise RequestError("request field 'context' must map strings to strings")


class MatchTrace(NamedTuple):
    """Outcome of consulting one statement.

    ``origin`` is a permission-set id for identity statements and the
    resource arn for resource statements; ``principal_match`` is None where
    no principal check applies (identity side). A tuple, so that building
    one per statement in scope stays cheap.
    """

    side: str  # "identity" | "resource"
    origin: str
    policy: str
    statement_index: int
    effect: Effect
    action_match: bool
    resource_match: bool
    condition_match: bool
    principal_match: bool | None = None

    @property
    def matched(self) -> bool:
        return (
            self.action_match
            and self.resource_match
            and self.condition_match
            and self.principal_match is not False
        )


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    reason: Reason
    trace: tuple[MatchTrace, ...] = ()

    def __post_init__(self) -> None:
        allowed = self.verdict is Verdict.ALLOW
        if allowed != (self.reason in _ALLOW_REASONS):
            raise ValueError(f"verdict {self.verdict} contradicts reason {self.reason}")


def concrete_arn(arn: str) -> bool:
    """True iff ``arn`` can name one resource in a request: it is non-empty
    and has no ``*``. A registered arn need not be concrete."""
    return bool(arn) and "*" not in arn


def validate_request(org: Organization, request: AccessRequest) -> None:
    """Reject wildcard actions/resources and unknown users or accounts."""
    try:
        split_action(request.action)
    except ValueError as exc:
        raise RequestError(str(exc)) from exc
    if not concrete_arn(request.resource):
        raise RequestError(f"request resource must be a concrete arn: {request.resource!r}")
    try:
        org.user(request.user)
    except LookupError as exc:
        raise RequestError(str(exc)) from exc
    if not org.has_account(request.account):
        raise RequestError(f"unknown account: {request.account}")


def _covers(stmt: Statement, user: str, account: str) -> bool:
    """True iff a resource statement's principals name ``user`` or ``account``."""
    principals = stmt.principals or ()
    return user in principals or account in principals


def _resource_side(org: Organization, arn: str, account: str) -> tuple[PolicyDocument | None, bool, bool]:
    """For a request from ``account`` on ``arn``: the attached policy, whether
    it is same-account (an unregistered arn is), and, if it is not, whether
    a share covers ``account``."""
    resource = org.resources_by_arn.get(arn)
    if resource is None:
        return None, True, False
    if account == resource.owner_account:
        return resource.resource_policy, True, False
    return resource.resource_policy, False, shares_covering(org, arn, account)


def _trace_statement(side: str, origin: str, policy_name: str, index: int, stmt: Statement,
                     request: AccessRequest) -> MatchTrace:
    principal = _covers(stmt, request.user, request.account) if side == "resource" else None
    return MatchTrace(
        side,
        origin,
        policy_name,
        index,
        stmt.effect,
        stmt.action_match(request.action),
        stmt.resource_match(request.resource),
        # most statements have no condition, and the empty block always holds
        not stmt.condition.clauses or condition_holds(stmt.condition, request.context),
        principal,
    )


def _identity(org: Organization, user: str, account: str) -> list[tuple[str, PolicyDocument]]:
    """The ``(permission-set id, policy)`` pairs reaching ``user`` in ``account``,
    in trace order; :class:`LookupError` if the principal does not resolve."""
    return [(ps_id, policy) for ps_id in resolve_permission_set_ids(org, user, account)
            for policy in org.permission_set(ps_id).policies]


def identity_trace(org: Organization, request: AccessRequest) -> list[MatchTrace]:
    """Validate ``request`` and trace its identity statements, as :func:`authorize` does first."""
    validate_request(org, request)
    return [_trace_statement("identity", ps_id, policy.name, index, stmt, request)
            for ps_id, policy in _identity(org, request.user, request.account)
            for index, stmt in enumerate(policy.statements)]


def authorize(org: Organization, request: AccessRequest) -> Decision:
    """Decide one request, returning the verdict, reason and full trace."""
    trace = identity_trace(org, request)
    policy, same_account, shared = _resource_side(org, request.resource, request.account)
    if policy is not None:
        for index, stmt in enumerate(policy.statements):
            trace.append(_trace_statement("resource", request.resource, policy.name, index, stmt, request))
    reason, _ = _judge(trace, same_account, shared)
    verdict = Verdict.ALLOW if reason in _ALLOW_REASONS else Verdict.DENY
    return Decision(verdict, reason, tuple(trace))


def _judge(trace: Sequence[MatchTrace], same_account: bool, shared: bool) -> tuple[Reason, str]:
    """Apply the four rules of the module docstring to a complete trace and
    the facts of :func:`_resource_side`, returning the reason and the
    sentence that explains it."""
    identity_allow = resource_allow = False
    for t in trace:
        if t.matched:
            if t.effect is Effect.DENY:
                return Reason.EXPLICIT_DENY, "an explicit Deny statement matched the request"
            if t.side == "identity":
                identity_allow = True
            else:
                resource_allow = True
    if same_account:
        if identity_allow or resource_allow:
            return (Reason.SAME_ACCOUNT_ALLOW,
                    "same-account request: a matching Allow statement grants access")
        return (Reason.IMPLICIT_DENY,
                "same-account request: no matching Allow statement; denied by default")
    if identity_allow and (resource_allow or shared):
        return (Reason.CROSS_ACCOUNT_ALLOW,
                "cross-account request: identity Allow and resource-side grant both present")
    if identity_allow:
        return (Reason.IMPLICIT_DENY,
                "cross-account request: identity Allow matched but the resource side "
                "grants nothing (no matching resource Allow, no share); denied by default")
    return Reason.IMPLICIT_DENY, "cross-account request: no matching identity Allow; denied by default"


def resource_classes(org: Organization, user: str, account: str) -> Callable[[str], Hashable]:
    """A memoized map from an arn to its class for context-free requests by
    ``user`` acting in ``account``: two arns of one class get one verdict for
    every action. The class holds what :func:`authorize` reads of the arn:
    :func:`_resource_side`'s two bits, the identity statements whose
    resources match it, and the ``(effect, actions)`` of each statement of
    its policy that admits the request. An arn ``validate_request`` refuses
    is a class of its own, and so is every arn of a principal that does not
    resolve, so the pair that fails is still authorized alone."""
    try:
        identity = [stmt for _, policy in _identity(org, user, account) for stmt in policy.statements]
    except LookupError:
        return str

    def key_of(arn: str) -> Hashable:
        if not concrete_arn(arn):
            return arn
        policy, same_account, shared = _resource_side(org, arn, account)
        return (
            same_account,
            shared,
            tuple(i for i, stmt in enumerate(identity) if stmt.resource_match(arn)),
            () if policy is None else tuple(
                (stmt.effect, stmt.actions) for stmt in policy.statements
                if stmt.resource_match(arn) and _covers(stmt, user, account)
                and condition_holds(stmt.condition, {})
            ),
        )

    return functools.cache(key_of)


def simulate(
    org: Organization,
    requests: Sequence[AccessRequest],
    sink: Callable[[AuditEvent], None] | None = None,
) -> list[Decision]:
    """Authorize a batch in order, emitting one audit event per request.

    A malformed request raises :class:`RequestError` naming its index.
    Events go to ``sink`` only once every request is decided, so a bad
    batch emits none. Event ``i`` is stamped ``SIMULATION_EPOCH`` plus
    ``i`` seconds.
    """
    decisions = []
    for i, request in enumerate(requests):
        try:
            decisions.append(authorize(org, request))
        except RequestError as exc:
            raise RequestError(f"request {i}: {exc}") from exc
    if sink is not None:
        for i, (request, decision) in enumerate(zip(requests, decisions)):
            sink(AuditEvent(
                time=SIMULATION_EPOCH + timedelta(seconds=i),
                kind=EventKind.API_CALL,
                user=request.user,
                account=request.account,
                action=request.action,
                resource=request.resource,
                verdict=decision.verdict,
                source=request.account,
            ))
    return decisions


_YN = {None: "-", True: "yes", False: "no"}


def render_trace(org: Organization, request: AccessRequest, decision: Decision) -> str:
    """Deterministic human-readable account of a decision."""
    _, same_account, shared = _resource_side(org, request.resource, request.account)
    lines = [
        f"decision: {decision.verdict.value} ({decision.reason.value})",
        f"rule: {_judge(decision.trace, same_account, shared)[1]}",
        "trace:",
    ]
    if not decision.trace:
        lines.append("  (no statements in scope)")
    for t in decision.trace:
        status = "matched" if t.matched else "no match"
        lines.append(
            f"  [{t.side}] {shown(t.origin)} policy={shown(t.policy)} statement={t.statement_index} "
            f"effect={t.effect.value} action={_YN[t.action_match]} "
            f"resource={_YN[t.resource_match]} condition={_YN[t.condition_match]} "
            f"principal={_YN[t.principal_match]} -> {status}"
        )
    return "\n".join(lines)


def trace_to_obj(trace: Iterable[MatchTrace]) -> list[dict]:
    return [
        {
            "side": t.side,
            "origin": t.origin,
            "policy": t.policy,
            "statement": t.statement_index,
            "effect": t.effect.value,
            "action_match": t.action_match,
            "resource_match": t.resource_match,
            "condition_match": t.condition_match,
            "principal_match": t.principal_match,
            "matched": t.matched,
        }
        for t in trace
    ]


def decision_to_obj(decision: Decision, include_trace: bool = False) -> dict:
    out: dict = {"verdict": decision.verdict.value, "reason": decision.reason.value}
    if include_trace:
        out["trace"] = trace_to_obj(decision.trace)
    return out
