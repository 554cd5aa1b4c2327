"""Multi-account organization model and scenario files.

An organization is a tree of organizational units holding accounts, plus
org-wide single-sign-on users and groups, reusable permission sets, the
subject/account/permission-set assignments that grant access, registered
resources with optional resource-attached policies, and account-level
resource shares. Everything is immutable; updates return new values so a
baseline org can be compared against what-if variants cheaply.

Permission-set resolution and share lookups read indices that each
organization value builds lazily on first use, so later decisions do not
scan the assignments or shares. The first decision on a fresh or what-if
org pays the one-off build: about 50 ms for the benchmark's large org with
20k assignments (2-vCPU Xeon VM, CPython 3.11).

Scenario files are single JSON documents (see :func:`build_org`) with the
top-level keys ``organization``, ``users``, ``groups``, ``permission_sets``,
``assignments``, ``resources`` and ``shares``; policy documents are embedded
verbatim in the policy grammar. The first structural fault (a wrong shape,
an unknown or missing field, an unparsable policy) aborts the build; all
referential and invariant violations are then listed together.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence, Union

from .policy import PolicyDocument, PolicyParseError, parse_policy, policy_to_obj

OuPath = Union[str, Sequence[str]]


class ScenarioError(ValueError):
    """A scenario document is malformed or violates org invariants."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Account:
    id: str
    name: str


@dataclass(frozen=True)
class OrgUnit:
    """A named tree node grouping accounts managed as one unit."""

    name: str
    accounts: tuple[Account, ...] = ()
    children: tuple["OrgUnit", ...] = ()

    def walk(self) -> Iterator["OrgUnit"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class SsoUser:
    """An org-wide principal; gains account access only through assignments."""

    id: str
    display_name: str = ""
    groups: tuple[str, ...] = ()


@dataclass(frozen=True)
class SsoGroup:
    id: str
    display_name: str = ""


@dataclass(frozen=True)
class PermissionSet:
    """A reusable bundle of identity policies, assignable per account."""

    id: str
    policies: tuple[PolicyDocument, ...] = ()


@dataclass(frozen=True)
class Assignment:
    """Grants one user or group the permission set's policies in one account."""

    subject_kind: str  # "user" | "group"
    subject: str
    account: str
    permission_set: str


@dataclass(frozen=True)
class Resource:
    """A concrete resource, optionally carrying a resource-attached policy
    whose statements name the principals they cover."""

    arn: str
    owner_account: str
    resource_policy: PolicyDocument | None = None


@dataclass(frozen=True)
class ResourceShare:
    """Account-level grant exposing a resource to other accounts; satisfies
    the resource-side requirement of cross-account access for every
    principal acting in a listed account."""

    resource: str
    shared_with: tuple[str, ...]


@dataclass(frozen=True)
class Organization:
    """An immutable org whose lookup tables are built lazily per value.

    Permission-set resolution and share lookups use indices over
    ``assignments`` and ``shares``, built on first use. A what-if variant
    made with :func:`dataclasses.replace` starts with empty caches and
    builds its own indices on its first decision.
    """

    root: OrgUnit
    management_account: str
    users: tuple[SsoUser, ...] = ()
    groups: tuple[SsoGroup, ...] = ()
    permission_sets: tuple[PermissionSet, ...] = ()
    assignments: tuple[Assignment, ...] = ()
    resources: tuple[Resource, ...] = ()
    shares: tuple[ResourceShare, ...] = ()

    @cached_property
    def accounts(self) -> tuple[Account, ...]:
        return tuple(acct for ou in self.root.walk() for acct in ou.accounts)

    @cached_property
    def accounts_by_id(self) -> Mapping[str, Account]:
        return {a.id: a for a in self.accounts}

    @cached_property
    def users_by_id(self) -> Mapping[str, SsoUser]:
        return {u.id: u for u in self.users}

    @cached_property
    def groups_by_id(self) -> Mapping[str, SsoGroup]:
        return {g.id: g for g in self.groups}

    @cached_property
    def permission_sets_by_id(self) -> Mapping[str, PermissionSet]:
        return {p.id: p for p in self.permission_sets}

    @cached_property
    def resources_by_arn(self) -> Mapping[str, Resource]:
        return {r.arn: r for r in self.resources}

    @cached_property
    def permission_set_ids_by_subject(self) -> Mapping[tuple[str, str, str], tuple[str, ...]]:
        """(subject kind, subject, account) -> assigned permission-set ids."""
        index: dict[tuple[str, str, str], set[str]] = {}
        for a in self.assignments:
            index.setdefault((a.subject_kind, a.subject, a.account), set()).add(a.permission_set)
        return {key: tuple(sorted(ids)) for key, ids in index.items()}

    @cached_property
    def shared_accounts_by_arn(self) -> Mapping[str, frozenset[str]]:
        """arn -> accounts some share exposes the resource to."""
        index: dict[str, set[str]] = {}
        for s in self.shares:
            index.setdefault(s.resource, set()).update(s.shared_with)
        return {arn: frozenset(accounts) for arn, accounts in index.items()}

    def user(self, user_id: str) -> SsoUser:
        try:
            return self.users_by_id[user_id]
        except KeyError:
            raise LookupError(f"unknown user: {user_id}") from None

    def permission_set(self, ps_id: str) -> PermissionSet:
        try:
            return self.permission_sets_by_id[ps_id]
        except KeyError:
            raise LookupError(f"unknown permission set: {ps_id}") from None

    def has_account(self, account_id: str) -> bool:
        return account_id in self.accounts_by_id

    def find_ou(self, path: OuPath) -> OrgUnit:
        """Resolve a slash-separated (or sequence) path of OU names below
        the root; the empty path or ``/`` is the root itself."""
        if isinstance(path, str):
            parts = [p for p in path.split("/") if p]
        else:
            parts = list(path)
        node = self.root
        for name in parts:
            for child in node.children:
                if child.name == name:
                    node = child
                    break
            else:
                raise LookupError(f"unknown organizational unit path: {'/'.join(parts)}")
        return node


_STRINGS = "list of strings"  # field type: a list whose items are all strings
_REQUIRED = object()  # field default: the field must be present
_LIST = (list, ())

# record kind -> field -> (type, default), in check order. A type of str,
# list or _STRINGS is checked by _record; None leaves it to build_org.
_SPECS: dict[str, dict[str, tuple]] = {
    "scenario": {"organization": (None, _REQUIRED), "users": _LIST, "groups": _LIST,
                 "permission_sets": _LIST, "assignments": _LIST, "resources": _LIST,
                 "shares": _LIST},
    "organization": {"management_account": (str, _REQUIRED), "root": (None, _REQUIRED)},
    "OU": {"name": (str, _REQUIRED), "accounts": _LIST, "children": _LIST},
    "account": {"id": (str, _REQUIRED), "name": (str, None)},  # no name: the id
    "user": {"id": (str, _REQUIRED), "display_name": (str, ""), "groups": (_STRINGS, ())},
    "group": {"id": (str, _REQUIRED), "display_name": (str, "")},
    "permission set": {"id": (str, _REQUIRED), "policies": _LIST},
    "policy entry": {"name": (str, _REQUIRED), "document": (None, _REQUIRED)},
    "assignment": {"user": (str, None), "group": (str, None), "account": (str, _REQUIRED),
                   "permission_set": (str, _REQUIRED)},
    "resource": {"arn": (str, _REQUIRED), "owner_account": (str, _REQUIRED),
                 "resource_policy": (None, None)},
    "share": {"resource": (str, _REQUIRED), "shared_with": (_STRINGS, _REQUIRED)},
}
_REQUIRED_FIELDS = {kind: frozenset(f for f, (_, default) in spec.items() if default is _REQUIRED)
                    for kind, spec in _SPECS.items()}


def _record(obj: object, kind: str, where: str) -> dict:
    """Check one record against its spec; return its fields, defaults filled in."""
    if not isinstance(obj, dict):
        raise ScenarioError([f"{where}: expected an object"])
    spec = _SPECS[kind]
    if not obj.keys() <= spec.keys():
        unknown = sorted(obj.keys() - spec.keys())
        raise ScenarioError([f"{where}: unknown field(s) {', '.join(unknown)}"])
    if not obj.keys() >= _REQUIRED_FIELDS[kind]:
        missing = sorted(_REQUIRED_FIELDS[kind] - obj.keys())
        raise ScenarioError([f"{where}: missing field(s) {', '.join(missing)}"])
    out = {}
    for field, (type_, default) in spec.items():
        if field not in obj:
            out[field] = default
            continue
        value = out[field] = obj[field]
        if type_ is str:
            if not isinstance(value, str):
                raise ScenarioError([f"{where}.{field}: expected a string"])
        elif type_ is not None:
            if not isinstance(value, list):
                raise ScenarioError([f"{where}.{field}: expected a list"])
            if type_ is _STRINGS and not all(isinstance(v, str) for v in value):
                raise ScenarioError([f"{where}.{field}: expected a list of strings"])
    return out


def _records(items: list, kind: str, where: str) -> Iterator[tuple[str, dict]]:
    for i, obj in enumerate(items):
        yield f"{where}[{i}]", _record(obj, kind, f"{where}[{i}]")


def _build_ou(obj: object, where: str) -> OrgUnit:
    ou = _record(obj, "OU", where)
    accounts = []
    for i, acct in enumerate(ou["accounts"]):
        if isinstance(acct, str):  # shorthand for {"id": acct}
            acct = {"id": acct, "name": None}
        else:
            acct = _record(acct, "account", f"{where}.accounts[{i}]")
        accounts.append(Account(acct["id"], acct["id"] if acct["name"] is None else acct["name"]))
    children = tuple(_build_ou(c, f"{where}.children[{i}]") for i, c in enumerate(ou["children"]))
    return OrgUnit(name=ou["name"], accounts=tuple(accounts), children=children)


def _parse_embedded_policy(obj: object, name: str, where: str) -> PolicyDocument:
    if not isinstance(obj, dict):
        raise ScenarioError([f"{where}: policy document must be an object"])
    try:
        return parse_policy(obj, name=name)
    except PolicyParseError as exc:
        raise ScenarioError([f"{where}: {exc}"]) from exc


def build_org(scenario: dict) -> Organization:
    """Build and validate an organization from a JSON-decoded scenario.

    Records are the ``dict``, ``list`` and ``str`` values :func:`json.loads`
    makes; other mappings and sequences, tuples included, are rejected. The
    first structural fault aborts; referential and invariant violations are
    collected and raised together, so a bad scenario is diagnosed in one pass.
    """
    top = _record(scenario, "scenario", "scenario")
    org_obj = _record(top["organization"], "organization", "scenario.organization")
    root = _build_ou(org_obj["root"], "organization.root")
    users = [SsoUser(id=u["id"], display_name=u["display_name"], groups=tuple(u["groups"]))
             for _, u in _records(top["users"], "user", "users")]
    groups = [SsoGroup(id=g["id"], display_name=g["display_name"])
              for _, g in _records(top["groups"], "group", "groups")]
    permission_sets = [
        PermissionSet(id=p["id"], policies=tuple(
            _parse_embedded_policy(e["document"], e["name"], where)
            for where, e in _records(p["policies"], "policy entry", f"{ps_where}.policies")
        ))
        for ps_where, p in _records(top["permission_sets"], "permission set", "permission_sets")
    ]

    assignments = []
    for where, a in _records(top["assignments"], "assignment", "assignments"):
        if (a["user"] is None) == (a["group"] is None):
            raise ScenarioError([f"{where}: exactly one of 'user' or 'group' is required"])
        kind = "user" if a["group"] is None else "group"
        assignments.append(Assignment(kind, a[kind], a["account"], a["permission_set"]))

    resources = []
    for where, r in _records(top["resources"], "resource", "resources"):
        policy = r["resource_policy"]  # null is the same as absent
        if policy is not None:
            policy = _parse_embedded_policy(policy, f"resource-policy:{r['arn']}", where)
        resources.append(Resource(r["arn"], r["owner_account"], policy))

    shares = [ResourceShare(resource=s["resource"], shared_with=tuple(s["shared_with"]))
              for _, s in _records(top["shares"], "share", "shares")]

    org = Organization(
        root=root,
        management_account=org_obj["management_account"],
        users=tuple(sorted(users, key=lambda u: u.id)),
        groups=tuple(sorted(groups, key=lambda g: g.id)),
        permission_sets=tuple(sorted(permission_sets, key=lambda p: p.id)),
        assignments=tuple(sorted(
            assignments,
            key=lambda a: (a.subject, a.account, a.permission_set, a.subject_kind),
        )),
        resources=tuple(sorted(resources, key=lambda r: r.arn)),
        shares=tuple(sorted(shares, key=lambda s: (s.resource, s.shared_with))),
    )
    violations = validate_org(org)
    if violations:
        raise ScenarioError(violations)
    return org


def _arn_account_segment(arn: str) -> str | None:
    parts = arn.split(":")
    if len(parts) >= 6 and parts[4]:
        return parts[4]
    return None


def validate_org(org: Organization) -> list[str]:
    """Return every invariant violation in the organization; [] when valid."""
    out: list[str] = []

    seen_accounts: dict[str, str] = {}
    seen_names: dict[str, str] = {}
    for ou in org.root.walk():
        child_names = [c.name for c in ou.children]
        for name in sorted({n for n in child_names if child_names.count(n) > 1}):
            out.append(f"duplicate OU name {name!r} under {ou.name!r}")
        for acct in ou.accounts:
            if acct.id in seen_accounts:
                out.append(
                    f"account {acct.id} appears in both {seen_accounts[acct.id]!r} and {ou.name!r}"
                )
            else:
                seen_accounts[acct.id] = ou.name
            if acct.name in seen_names:
                out.append(f"duplicate account name {acct.name!r}")
            else:
                seen_names[acct.name] = acct.id

    if org.management_account not in seen_accounts:
        out.append(f"management account {org.management_account} is not in the organization")

    def check_unique(ids: list[str], what: str) -> None:
        seen: set[str] = set()
        for i in ids:
            if i in seen:
                out.append(f"duplicate {what} id {i!r}")
            seen.add(i)

    check_unique([u.id for u in org.users], "user")
    check_unique([g.id for g in org.groups], "group")
    check_unique([p.id for p in org.permission_sets], "permission set")

    group_ids = {g.id for g in org.groups}
    for user in org.users:
        for gid in user.groups:
            if gid not in group_ids:
                out.append(f"user {user.id} is member of unknown group {gid}")

    for ps in org.permission_sets:
        names = [p.name for p in ps.policies]
        for name in sorted({n for n in names if names.count(n) > 1}):
            out.append(f"permission set {ps.id}: duplicate policy name {name!r}")
        for policy in ps.policies:
            for idx, stmt in enumerate(policy.statements):
                if stmt.principals is not None:
                    out.append(
                        f"permission set {ps.id} policy {policy.name} statement {idx}: "
                        f"identity policies must not carry Principal"
                    )

    user_ids = {u.id for u in org.users}
    ps_ids = {p.id for p in org.permission_sets}
    seen_triples: set[tuple[str, str, str, str]] = set()
    for a in org.assignments:
        triple = (a.subject_kind, a.subject, a.account, a.permission_set)
        label = f"({a.subject_kind} {a.subject}, account {a.account}, permission set {a.permission_set})"
        if triple in seen_triples:
            out.append(f"duplicate assignment {label}")
        seen_triples.add(triple)
        if a.subject_kind not in ("user", "group"):
            out.append(f"assignment {label}: unknown subject kind")
        elif a.subject_kind == "user" and a.subject not in user_ids:
            out.append(f"assignment {label}: unknown user {a.subject}")
        elif a.subject_kind == "group" and a.subject not in group_ids:
            out.append(f"assignment {label}: unknown group {a.subject}")
        if a.account not in seen_accounts:
            out.append(f"assignment {label}: unknown account {a.account}")
        if a.permission_set not in ps_ids:
            out.append(f"assignment {label}: unknown permission set {a.permission_set}")

    seen_arns: set[str] = set()
    for res in org.resources:
        if res.arn in seen_arns:
            out.append(f"duplicate resource arn {res.arn}")
        seen_arns.add(res.arn)
        if res.owner_account not in seen_accounts:
            out.append(f"resource {res.arn}: unknown owner account {res.owner_account}")
        segment = _arn_account_segment(res.arn)
        if segment is not None and segment != res.owner_account:
            out.append(
                f"resource {res.arn}: arn account segment {segment} "
                f"does not match owner {res.owner_account}"
            )
        if res.resource_policy is not None:
            for idx, stmt in enumerate(res.resource_policy.statements):
                if stmt.principals is None:
                    out.append(
                        f"resource {res.arn} statement {idx}: "
                        f"resource policies must name their principals"
                    )

    for share in org.shares:
        if share.resource not in seen_arns:
            out.append(f"share for unknown resource {share.resource}")
        if not share.shared_with:
            out.append(f"share for {share.resource}: shared_with is empty")
        owner = org.resources_by_arn.get(share.resource)
        for acct in share.shared_with:
            if acct not in seen_accounts:
                out.append(f"share for {share.resource}: unknown account {acct}")
            elif owner is not None and acct == owner.owner_account:
                out.append(f"share for {share.resource}: owner account must not be listed")

    return out


def load_scenario(path) -> Organization:
    """Read and build a scenario file; JSON problems become ScenarioError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        scenario = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep for the decoder
        raise ScenarioError([f"{path}: malformed JSON: {exc}"]) from exc
    return build_org(scenario)


def export_scenario(org: Organization) -> dict:
    """Render an organization back into the scenario-file format.

    Rebuilding the export yields an equal organization.
    """
    def ou_obj(ou: OrgUnit) -> dict:
        out: dict = {"name": ou.name}
        if ou.accounts:
            out["accounts"] = [{"id": a.id, "name": a.name} for a in ou.accounts]
        if ou.children:
            out["children"] = [ou_obj(c) for c in ou.children]
        return out

    def policy_entry(doc: PolicyDocument) -> dict:
        return {"name": doc.name, "document": policy_to_obj(doc)}

    out: dict = {
        "organization": {
            "management_account": org.management_account,
            "root": ou_obj(org.root),
        }
    }
    if org.users:
        out["users"] = [
            {"id": u.id, "display_name": u.display_name, "groups": list(u.groups)}
            for u in org.users
        ]
    if org.groups:
        out["groups"] = [{"id": g.id, "display_name": g.display_name} for g in org.groups]
    if org.permission_sets:
        out["permission_sets"] = [
            {"id": p.id, "policies": [policy_entry(doc) for doc in p.policies]}
            for p in org.permission_sets
        ]
    if org.assignments:
        out["assignments"] = [
            {a.subject_kind: a.subject, "account": a.account, "permission_set": a.permission_set}
            for a in org.assignments
        ]
    if org.resources:
        out["resources"] = [
            {
                "arn": r.arn,
                "owner_account": r.owner_account,
                **({"resource_policy": policy_to_obj(r.resource_policy)}
                   if r.resource_policy is not None else {}),
            }
            for r in org.resources
        ]
    if org.shares:
        out["shares"] = [
            {"resource": s.resource, "shared_with": list(s.shared_with)} for s in org.shares
        ]
    return out


def provision_account(org: Organization, name: str, ou_path: OuPath) -> Organization:
    """Return a new organization with a fresh account under the named OU.

    The original value is untouched. The fresh id is the smallest unused
    12-digit numeric id, so repeated provisioning is reproducible.
    """
    target = org.find_ou(ou_path)
    if any(a.name == name for a in org.accounts):
        raise ScenarioError([f"duplicate account name {name!r}"])
    used = {int(a.id) for a in org.accounts if a.id.isdigit()}
    n = 1
    while n in used:
        n += 1
    account = Account(id=f"{n:012d}", name=name)

    def rebuild(node: OrgUnit) -> OrgUnit:
        if node is target:
            return dataclasses.replace(node, accounts=node.accounts + (account,))
        return dataclasses.replace(node, children=tuple(rebuild(c) for c in node.children))

    return dataclasses.replace(org, root=rebuild(org.root))


def accounts_in_subtree(org: Organization, ou_path: OuPath) -> list[str]:
    """Account ids at or below the OU, depth-first in document order."""
    node = org.find_ou(ou_path)
    return [acct.id for ou in node.walk() for acct in ou.accounts]


def resolve_permission_set_ids(org: Organization, user_id: str, account_id: str) -> tuple[str, ...]:
    """Permission sets reaching (user, account) directly or via groups,
    deduplicated, ascending by id."""
    user = org.user(user_id)
    if not org.has_account(account_id):
        raise LookupError(f"unknown account: {account_id}")
    index = org.permission_set_ids_by_subject
    ids = set(index.get(("user", user_id, account_id), ()))
    for group in user.groups:
        ids.update(index.get(("group", group, account_id), ()))
    return tuple(sorted(ids))


def resolve_identity_policies(org: Organization, user_id: str, account_id: str) -> list[PolicyDocument]:
    """All identity policies in force for the user acting in the account."""
    policies: list[PolicyDocument] = []
    for ps_id in resolve_permission_set_ids(org, user_id, account_id):
        policies.extend(org.permission_set(ps_id).policies)
    return policies


def resource_lookup(org: Organization, arn: str) -> Resource:
    try:
        return org.resources_by_arn[arn]
    except KeyError:
        raise LookupError(f"unknown resource: {arn}") from None


def shares_covering(org: Organization, arn: str, account_id: str) -> bool:
    """True iff some share exposes the resource to the account."""
    return account_id in org.shared_accounts_by_arn.get(arn, ())
