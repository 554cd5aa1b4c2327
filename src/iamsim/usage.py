"""Least-privilege analysis over observed activity.

Folds an audit-event stream into a usage index (which policy statements
were last exercised, and which action/resource pairs each principal was
actually allowed), reports statements that have gone unused, and generates
least-privilege policies from a principal's observed activity at a chosen
specificity level. Generated policies are replay-verified: every
generating observation must re-authorize, and a sampled complement of
unobserved pairs quantifies how much extra room the policy leaves.

Replay decides the complement sample by resource class. For the fixed
replay principal, an arn's class is the set of facts about it that
``authorize`` reads: whether the principal's account owns it, whether a
share covers that account, which identity statements' resource patterns
match it, and which statements of its own policy apply to the principal
under the empty context that replay requests carry. ``authorize`` is called
once per sampled ``(action, class)``, on the first pair that reaches it,
and every other pair of that action and class takes its verdict. So the
sample, the counts and the verdicts are those of one call per pair, and
the decision rules stay stated once, in the engine.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import filterfalse, product
from typing import Callable, Hashable

from .audit import EventKind, format_timestamp
from .engine import AccessRequest, RequestError, authorize, concrete_arn
from .org import (
    Assignment, Organization, PermissionSet, resolve_permission_set_ids, shares_covering,
)
from .policy import (
    ActionLevel,
    ActionPattern,
    Effect,
    PolicyDocument,
    ResourcePattern,
    Statement,
    Verdict,
    VerbTable,
    condition_holds,
    generalize_action,
    policy_to_obj,
)

DEFAULT_SAMPLE_SEED = 1729
DEFAULT_SAMPLE_CAP = 10_000

StatementKey = tuple[str, str, int]  # (permission set, policy name, statement index)
Principal = tuple[str, str]  # (user, account)


class UsageError(ValueError):
    """The event stream or an analysis request is unusable."""


@dataclass
class UsageIndex:
    """Activity digest: last-used times per identity statement, and the
    allowed (action, resource, time) observations per principal.

    Built once by :func:`build_usage_index`; read-only afterwards. Keeps
    the organization it was built against so later analysis can replay
    decisions against the same world.
    """

    org: Organization
    statement_last_used: dict[StatementKey, datetime] = field(default_factory=dict)
    observations: dict[Principal, set[tuple[str, str, datetime]]] = field(default_factory=dict)

    def observed_in_window(self, principal: Principal, window: tuple[datetime, datetime]) -> set[tuple[str, str]]:
        start, end = window
        return {
            (action, resource)
            for action, resource, when in self.observations.get(principal, set())
            if start <= when <= end
        }

    def actions_seen(self) -> set[str]:
        return {action for triples in self.observations.values() for action, _, _ in triples}


def build_usage_index(org: Organization, events) -> UsageIndex:
    """Fold a time-ordered event stream into a usage index.

    For each allowed API call the decision is re-derived against ``org``
    and every identity-side Allow statement that matched is credited with
    the event time. Events carry no request context, so statements gated
    on conditions are never credited. Login and Deny events contribute
    nothing.
    """
    index = UsageIndex(org=org)
    last_time: datetime | None = None
    for i, event in enumerate(events):
        if last_time is not None and event.time < last_time:
            raise UsageError(
                f"event {i} at {format_timestamp(event.time)} is out of order "
                f"(previous {format_timestamp(last_time)})"
            )
        last_time = event.time
        if event.kind is not EventKind.API_CALL or event.verdict is not Verdict.ALLOW:
            continue
        try:
            decision = authorize(org, AccessRequest(
                user=event.user, account=event.account,
                action=event.action, resource=event.resource,
            ))
        except RequestError as exc:
            raise UsageError(f"event {i}: {exc}") from exc
        for t in decision.trace:
            if t.side == "identity" and t.effect is Effect.ALLOW and t.matched:
                index.statement_last_used[(t.origin, t.policy, t.statement_index)] = event.time
        index.observations.setdefault((event.user, event.account), set()).add(
            (event.action, event.resource, event.time)
        )
    return index


@dataclass(frozen=True)
class UnusedEntry:
    permission_set: str
    policy: str
    statement_index: int
    last_used: datetime | None  # None = never observed


def unused_report(
    index: UsageIndex,
    org: Organization,
    as_of: datetime,
    threshold_days: int,
) -> list[UnusedEntry]:
    """Statements never used, or last used before ``as_of - threshold_days``.

    Ordered stalest first (never-used ahead of everything), ties broken by
    ascending ids, so identical inputs render identical reports.
    """
    if threshold_days < 0:
        raise UsageError("threshold_days must be >= 0")
    cutoff = as_of - timedelta(days=threshold_days)
    entries = []
    for ps in org.permission_sets:
        for policy in ps.policies:
            for idx in range(len(policy.statements)):
                last = index.statement_last_used.get((ps.id, policy.name, idx))
                if last is None or last < cutoff:
                    entries.append(UnusedEntry(ps.id, policy.name, idx, last))
    entries.sort(key=lambda e: (
        (0,) if e.last_used is None else (1, e.last_used),
        e.permission_set, e.policy, e.statement_index,
    ))
    return entries


def unused_report_obj(entries: list[UnusedEntry]) -> list[dict]:
    return [
        {
            "permission_set": e.permission_set,
            "policy": e.policy,
            "statement": e.statement_index,
            "last_used": None if e.last_used is None else format_timestamp(e.last_used),
        }
        for e in entries
    ]


def render_unused_report(entries: list[UnusedEntry]) -> str:
    if not entries:
        return "no unused statements"
    rows = [("PERMISSION-SET", "POLICY", "STMT", "LAST-USED")]
    rows += [
        (e.permission_set, e.policy, str(e.statement_index),
         "never" if e.last_used is None else format_timestamp(e.last_used))
        for e in entries
    ]
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    return "\n".join(
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in rows
    )


@dataclass(frozen=True)
class VerificationResult:
    """Replay outcome for a generated policy.

    ``coverage`` is the fraction of generating observations re-authorized;
    ``excess`` the fraction of sampled unobserved pairs authorized.
    """

    coverage: float
    excess: float
    observed: int
    covered: int
    sampled: int
    excess_allowed: int

    def to_obj(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class GeneratedPolicy:
    document: PolicyDocument
    level: ActionLevel
    principal: Principal
    window: tuple[datetime, datetime]
    verified: bool
    verification: VerificationResult
    fallback_actions: tuple[str, ...] = ()


def install_sole_permission_set(
    org: Organization,
    user: str,
    account: str,
    document: PolicyDocument,
) -> Organization:
    """What-if org where ``document`` is the user's only grant in ``account``.

    Every assignment that reached the (user, account) pair, directly or via
    a group, is dropped. A fresh permission set holding the document, and a
    user-level assignment of it, are appended after the parent's permission
    sets and remaining assignments, which keep the parent's order. Resources,
    shares and other principals' grants are untouched.
    """
    member_of = set(org.user(user).groups)
    ps_id = "generated-replay"
    while ps_id in org.permission_sets_by_id:
        ps_id += "-x"

    def reaches(a: Assignment) -> bool:
        if a.account != account:
            return False
        if a.subject_kind == "user":
            return a.subject == user
        return a.subject in member_of

    assignments = tuple(a for a in org.assignments if not reaches(a)) + (
        Assignment("user", user, account, ps_id),)
    permission_sets = org.permission_sets + (PermissionSet(id=ps_id, policies=(document,)),)
    return dataclasses.replace(org, assignments=assignments, permission_sets=permission_sets)


def replay_verify(
    org: Organization,
    principal: Principal,
    observed_pairs: set[tuple[str, str]],
    complement_sample: list[tuple[str, str]],
) -> VerificationResult:
    """Re-authorize observations and a complement sample against ``org``.

    ``org`` should already carry the generated policy as the principal's
    sole permission set (see :func:`install_sole_permission_set`). Each
    observed pair is authorized. A sampled pair is authorized only when it
    is the first of its action and resource class (see
    :func:`_resource_classes`); every later pair of the same action and
    class takes that verdict, which ``authorize`` would give it again.
    """
    user, account = principal

    def allowed(action: str, resource: str) -> bool:
        decision = authorize(org, AccessRequest(
            user=user, account=account, action=action, resource=resource,
        ))
        return decision.verdict is Verdict.ALLOW

    covered = sum(1 for action, resource in sorted(observed_pairs) if allowed(action, resource))
    class_of = _resource_classes(org, user, account)
    verdicts: dict[tuple[str, Hashable], bool] = {}
    excess_allowed = 0
    for action, resource in complement_sample:
        key = (action, class_of(resource))
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = allowed(action, resource)
        excess_allowed += verdict
    observed = len(observed_pairs)
    sampled = len(complement_sample)
    return VerificationResult(
        coverage=covered / observed if observed else 1.0,
        excess=excess_allowed / sampled if sampled else 0.0,
        observed=observed,
        covered=covered,
        sampled=sampled,
        excess_allowed=excess_allowed,
    )


def _resource_classes(org: Organization, user: str, account: str) -> Callable[[str], Hashable]:
    """A memoized map from an arn to its class for requests by ``user``
    acting in ``account`` with the empty context replay requests carry.

    Two arns of one class get the same verdict for every action, because
    the class holds every fact about the arn that ``authorize`` reads: the
    owner test, the share test, which identity statements' resource
    patterns match it, and the ``(effect, actions)`` of each statement of
    its own policy whose resources, principals and condition admit the
    request. An arn that ``validate_request`` refuses is a class of its
    own, and so is every arn when the principal does not resolve, so the
    pair that fails is still authorized, and fails as it would alone.
    """
    try:
        identity = [
            stmt
            for ps_id in resolve_permission_set_ids(org, user, account)
            for policy in org.permission_set(ps_id).policies
            for stmt in policy.statements
        ]
    except LookupError:
        return str
    empty_context: dict[str, str] = {}

    def admits(stmt: Statement, arn: str) -> bool:
        principals = stmt.principals or ()
        return (stmt.resource_match(arn)
                and (user in principals or account in principals)
                and condition_holds(stmt.condition, empty_context))

    def key_of(arn: str) -> Hashable:
        if not concrete_arn(arn):
            return arn
        resource = org.resources_by_arn.get(arn)
        policy = None if resource is None else resource.resource_policy
        return (
            resource is None or resource.owner_account == account,
            shares_covering(org, arn, account),
            tuple(i for i, stmt in enumerate(identity) if stmt.resource_match(arn)),
            () if policy is None else tuple(
                (stmt.effect, stmt.actions) for stmt in policy.statements if admits(stmt, arn)
            ),
        )

    return functools.cache(key_of)


def complement_sample(
    index: UsageIndex,
    observed_pairs: set[tuple[str, str]],
    seed: int = DEFAULT_SAMPLE_SEED,
) -> list[tuple[str, str]]:
    """Seeded uniform sample of unobserved (action, resource) pairs.

    The universe is every action seen anywhere in the log crossed with
    every resource registered in the org, minus the principal's own
    observations, capped at ``DEFAULT_SAMPLE_CAP`` samples.
    """
    actions = sorted(index.actions_seen())
    resources = sorted(r.arn for r in index.org.resources)
    universe = list(filterfalse(observed_pairs.__contains__, product(actions, resources)))
    if len(universe) <= DEFAULT_SAMPLE_CAP:
        return universe
    return random.Random(seed).sample(universe, DEFAULT_SAMPLE_CAP)


def generate_least_privilege(
    index: UsageIndex,
    principal: Principal,
    level: ActionLevel | int,
    window: tuple[datetime, datetime],
    verb_table: VerbTable | None = None,
    sample_seed: int = DEFAULT_SAMPLE_SEED,
) -> GeneratedPolicy:
    """Build an Allow-only policy covering the principal's observed activity.

    Each observed action is widened to ``level``; one statement is emitted
    per distinct widened pattern. At the most specific level statements
    keep the exact observed resources; at the wider levels the resource
    collapses to ``*`` since those levels express service-wide privilege.
    The result is replay-verified before being returned.
    """
    level = ActionLevel(level)
    if level is ActionLevel.FULL:
        raise UsageError("generation level must be 2, 3 or 4")
    start, end = window
    if start > end:
        raise UsageError("window start is after its end")
    user, account = principal
    observed = index.observed_in_window(principal, window)
    if not observed:
        raise UsageError(
            f"no observations for {user} in {account} within "
            f"[{format_timestamp(start)}, {format_timestamp(end)}]"
        )

    fallbacks: set[str] = set()
    grouped: dict[str, set[str]] = {}  # pattern text -> observed resources
    for action, resource in sorted(observed):
        widened = generalize_action(action, level, table=verb_table)
        if widened.fallback:
            fallbacks.add(action)
        grouped.setdefault(widened.pattern.text, set()).add(resource)

    statements = []
    for pattern_text in sorted(grouped):
        if level is ActionLevel.EXACT:
            resources = tuple(ResourcePattern(r) for r in sorted(grouped[pattern_text]))
        else:
            resources = (ResourcePattern("*"),)
        statements.append(Statement(
            effect=Effect.ALLOW,
            actions=(ActionPattern.parse(pattern_text),),
            resources=resources,
        ))
    document = PolicyDocument(
        statements=tuple(statements),
        name=f"least-privilege-{user}-{account}-level{int(level)}",
    )

    sample = complement_sample(index, observed, seed=sample_seed)
    replay_org = install_sole_permission_set(index.org, user, account, document)
    result = replay_verify(replay_org, principal, observed, sample)
    verified = result.coverage == 1.0 and (level is not ActionLevel.EXACT or result.excess == 0.0)
    return GeneratedPolicy(
        document=document,
        level=level,
        principal=principal,
        window=window,
        verified=verified,
        verification=result,
        fallback_actions=tuple(sorted(fallbacks)),
    )


def generated_policy_obj(generated: GeneratedPolicy) -> dict:
    """JSON-ready rendering: policy document plus the replay summary."""
    return {
        "principal": {"user": generated.principal[0], "account": generated.principal[1]},
        "level": int(generated.level),
        "window": [format_timestamp(generated.window[0]), format_timestamp(generated.window[1])],
        "policy": policy_to_obj(generated.document),
        "verification": generated.verification.to_obj(),
        "verified": generated.verified,
        "fallback_actions": list(generated.fallback_actions),
    }
