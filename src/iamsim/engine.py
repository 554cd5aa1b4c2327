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

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

from .audit import AuditEvent, EventKind
from .org import Organization, resolve_permission_set_ids, shares_covering
from .policy import Effect, Statement, Verdict, condition_holds, split_action

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


@dataclass(frozen=True)
class MatchTrace:
    """Outcome of consulting one statement.

    ``origin`` is a permission-set id for identity statements and the
    resource arn for resource statements; ``principal_match`` is None where
    no principal check applies (identity side).
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


def validate_request(org: Organization, request: AccessRequest) -> None:
    """Reject wildcard actions/resources and unknown users or accounts."""
    try:
        split_action(request.action)
    except ValueError as exc:
        raise RequestError(str(exc)) from exc
    if not request.resource or "*" in request.resource:
        raise RequestError(f"request resource must be a concrete arn: {request.resource!r}")
    try:
        org.user(request.user)
    except LookupError as exc:
        raise RequestError(str(exc)) from exc
    if not org.has_account(request.account):
        raise RequestError(f"unknown account: {request.account}")


def _trace_statement(
    side: str,
    origin: str,
    policy_name: str,
    index: int,
    stmt: Statement,
    request: AccessRequest,
) -> MatchTrace:
    principal: bool | None = None
    if side == "resource":
        principals = stmt.principals or ()
        principal = request.user in principals or request.account in principals
    return MatchTrace(
        side=side,
        origin=origin,
        policy=policy_name,
        statement_index=index,
        effect=stmt.effect,
        action_match=stmt.action_match(request.action),
        resource_match=stmt.resource_match(request.resource),
        condition_match=condition_holds(stmt.condition, request.context),
        principal_match=principal,
    )


def authorize(org: Organization, request: AccessRequest) -> Decision:
    """Decide one request, returning the verdict, reason and full trace."""
    validate_request(org, request)

    trace: list[MatchTrace] = []
    for ps_id in resolve_permission_set_ids(org, request.user, request.account):
        for policy in org.permission_set(ps_id).policies:
            for index, stmt in enumerate(policy.statements):
                trace.append(_trace_statement("identity", ps_id, policy.name, index, stmt, request))

    resource = org.resources_by_arn.get(request.resource)
    if resource is not None and resource.resource_policy is not None:
        policy = resource.resource_policy
        for index, stmt in enumerate(policy.statements):
            trace.append(_trace_statement("resource", resource.arn, policy.name, index, stmt, request))

    reason, _ = _judge(org, request, trace)
    verdict = Verdict.ALLOW if reason in _ALLOW_REASONS else Verdict.DENY
    return Decision(verdict, reason, tuple(trace))


def _judge(org: Organization, request: AccessRequest, trace: Sequence[MatchTrace]) -> tuple[Reason, str]:
    """Apply the four rules of the module docstring to a complete trace,
    returning the reason and the sentence that explains it."""
    identity_allow = resource_allow = False
    for t in trace:
        if t.matched:
            if t.effect is Effect.DENY:
                return Reason.EXPLICIT_DENY, "an explicit Deny statement matched the request"
            if t.side == "identity":
                identity_allow = True
            else:
                resource_allow = True
    resource = org.resources_by_arn.get(request.resource)
    if resource is None or request.account == resource.owner_account:
        if identity_allow or resource_allow:
            return (Reason.SAME_ACCOUNT_ALLOW,
                    "same-account request: a matching Allow statement grants access")
        return (Reason.IMPLICIT_DENY,
                "same-account request: no matching Allow statement; denied by default")
    shared = shares_covering(org, request.resource, request.account)
    if identity_allow and (resource_allow or shared):
        return (Reason.CROSS_ACCOUNT_ALLOW,
                "cross-account request: identity Allow and resource-side grant both present")
    if identity_allow:
        return (Reason.IMPLICIT_DENY,
                "cross-account request: identity Allow matched but the resource side "
                "grants nothing (no matching resource Allow, no share); denied by default")
    return Reason.IMPLICIT_DENY, "cross-account request: no matching identity Allow; denied by default"


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


def _yn(value: bool | None) -> str:
    if value is None:
        return "-"
    return "yes" if value else "no"


def render_trace(org: Organization, request: AccessRequest, decision: Decision) -> str:
    """Deterministic human-readable account of a decision."""
    lines = [
        f"decision: {decision.verdict.value} ({decision.reason.value})",
        f"rule: {_judge(org, request, decision.trace)[1]}",
        "trace:",
    ]
    if not decision.trace:
        lines.append("  (no statements in scope)")
    for t in decision.trace:
        status = "matched" if t.matched else "no match"
        lines.append(
            f"  [{t.side}] {t.origin} policy={t.policy} statement={t.statement_index} "
            f"effect={t.effect.value} action={_yn(t.action_match)} "
            f"resource={_yn(t.resource_match)} condition={_yn(t.condition_match)} "
            f"principal={_yn(t.principal_match)} -> {status}"
        )
    return "\n".join(lines)


def explain(org: Organization, request: AccessRequest) -> str:
    """Authorize and render the full trace in one step."""
    return render_trace(org, request, authorize(org, request))


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
