"""Multi-account organization model and scenario files.

An organization is a tree of organizational units holding accounts, plus
org-wide single-sign-on users and groups, reusable permission sets, the
subject/account/permission-set assignments that grant access, registered
resources with optional resource-attached policies, and account-level
resource shares. Everything is immutable; updates return new values so a
baseline org can be compared against what-if variants cheaply. Users and
assignments, which a large org holds by the thousands, are named tuples of
their fields; the other records are frozen dataclasses, so records of two
kinds never compare equal.

Permission-set resolution and share lookups read indices that each
organization value builds lazily on first use, so later decisions do not
scan the assignments or shares. The first decision on a fresh or what-if
org pays the one-off build: about 5 ms for the benchmark's large org with
20k assignments (2-vCPU AMD EPYC VM, CPython 3.11.7).

Scenario files are single JSON documents (see :func:`build_org`) with the
top-level keys ``organization``, ``users``, ``groups``, ``permission_sets``,
``assignments``, ``resources`` and ``shares``; policy documents are embedded
verbatim in the policy grammar. The first structural fault (a wrong shape,
an unknown or missing field, an unparsable policy) aborts the build; all
referential and invariant violations are then listed together.

A record that holds every field of its kind, each of exactly the type
:func:`json.loads` gives it, is read straight into its record. Any other
record, one that leaves a field to its default included, takes the full
check of its field table, which fills in the defaults or names the first
fault, so a malformed file gets the same messages whichever path its
records take. Only that check formats a record's location, such as
``users[3]``. :func:`load_scenario` pauses the cyclic garbage collector,
process-wide, while it decodes and builds. Loading the benchmark's large
org (5k users, 20k assignments) takes 72-87 ms in process, 14-19 ms of it
in :func:`json.loads`; with the collector running and dataclass records it
took 113-148 ms (2-vCPU Intel Xeon VM, CPython 3.11.7).
"""

from __future__ import annotations

import dataclasses
import gc
import json
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

from .policy import PolicyDocument, PolicyParseError, parse_policy, policy_to_obj
from .textin import open_text, utf8_problem

OuPath = Union[str, Sequence[str]]

# builds a record of the fields build_org has already checked, without a call
# through the record's own __new__
_new_tuple = tuple.__new__


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


class SsoUser(NamedTuple):
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


class Assignment(NamedTuple):
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
    def permission_sets_by_id(self) -> Mapping[str, PermissionSet]:
        return {p.id: p for p in self.permission_sets}

    @cached_property
    def resources_by_arn(self) -> Mapping[str, Resource]:
        return {r.arn: r for r in self.resources}

    @cached_property
    def permission_set_ids_by_subject(self) -> Mapping[tuple[str, str, str], tuple[str, ...]]:
        """(subject kind, subject, account) -> assigned permission-set ids, in
        assignment order; :func:`resolve_permission_set_ids` dedups and sorts."""
        index: dict[tuple[str, str, str], tuple[str, ...]] = {}
        for a in self.assignments:
            key = (a.subject_kind, a.subject, a.account)
            index[key] = index.get(key, ()) + (a.permission_set,)
        return index

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


# record kind -> the key sets of the records build_org reads as they are: a
# dict holding every field of its kind (an assignment names one subject, a
# resource may leave out its policy) whose values have exactly the JSON types
# of the spec. Any other record, one leaving a field to its default included,
# goes to _record, which fills in the defaults or names the first fault.
# build_org writes each kind's type checks inline: one generic check of a record
# against its spec took 0.3-0.4 us more per record (12 against 4 ms over the
# large org's 20k assignments, 2-vCPU AMD EPYC, CPython 3.11.7). The fast-path
# tests change every field of a record of each key set, so an inline check
# that falls behind a type here fails them.
_SHAPES = {kind: (frozenset(spec),) for kind, spec in _SPECS.items()}
_SHAPES["assignment"] = tuple(_SHAPES["assignment"][0] - {other} for other in ("group", "user"))
_SHAPES["resource"] += (_SHAPES["resource"][0] - {"resource_policy"},)


def _strings(value: object) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


def _build_ou(obj: object, where: str) -> OrgUnit:
    if not (type(obj) is dict and obj.keys() in _SHAPES["OU"] and type(obj["name"]) is str
            and type(obj["accounts"]) is list and type(obj["children"]) is list):
        obj = _record(obj, "OU", where)
    accounts = []
    for i, acct in enumerate(obj["accounts"]):
        if isinstance(acct, str):  # shorthand for {"id": acct}
            accounts.append(Account(acct, acct))
            continue
        if not (type(acct) is dict and acct.keys() in _SHAPES["account"]
                and type(acct["id"]) is str and type(acct["name"]) is str):
            acct = _record(acct, "account", f"{where}.accounts[{i}]")
        accounts.append(Account(acct["id"], acct["id"] if acct["name"] is None else acct["name"]))
    children = tuple(_build_ou(c, f"{where}.children[{i}]") for i, c in enumerate(obj["children"]))
    return OrgUnit(name=obj["name"], accounts=tuple(accounts), children=children)


def _parse_embedded_policy(obj: object, name: str, where: str, i: int) -> PolicyDocument:
    """The policy of record ``i`` of the list at ``where``."""
    if not isinstance(obj, dict):
        raise ScenarioError([f"{where}[{i}]: policy document must be an object"])
    try:
        return parse_policy(obj, name=name)
    except PolicyParseError as exc:
        raise ScenarioError([f"{where}[{i}]: {exc}"]) from exc


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

    users = []
    for i, u in enumerate(top["users"]):
        if not (type(u) is dict and u.keys() in _SHAPES["user"] and type(u["id"]) is str
                and type(u["display_name"]) is str and _strings(u["groups"])):
            u = _record(u, "user", f"users[{i}]")
        users.append(_new_tuple(SsoUser, (u["id"], u["display_name"], tuple(u["groups"]))))

    groups = []
    for i, g in enumerate(top["groups"]):
        if not (type(g) is dict and g.keys() in _SHAPES["group"] and type(g["id"]) is str
                and type(g["display_name"]) is str):
            g = _record(g, "group", f"groups[{i}]")
        groups.append(SsoGroup(g["id"], g["display_name"]))

    permission_sets = []
    for i, p in enumerate(top["permission_sets"]):
        if not (type(p) is dict and p.keys() in _SHAPES["permission set"]
                and type(p["id"]) is str and type(p["policies"]) is list):
            p = _record(p, "permission set", f"permission_sets[{i}]")
        policies = []
        where = f"permission_sets[{i}].policies"
        for j, e in enumerate(p["policies"]):
            if not (type(e) is dict and e.keys() in _SHAPES["policy entry"]
                    and type(e["name"]) is str):
                e = _record(e, "policy entry", f"{where}[{j}]")
            policies.append(_parse_embedded_policy(e["document"], e["name"], where, j))
        permission_sets.append(PermissionSet(p["id"], tuple(policies)))

    # (subject, account, permission set, subject kind), sorted: the canonical
    # order. Sorting these tuples, then building the assignments in order, is
    # faster than sorting built assignments by attribute, and lays them out in
    # memory in the order every later pass reads them.
    rows = []
    for i, a in enumerate(top["assignments"]):
        kind = "user" if type(a) is dict and "user" in a else "group"
        if not (type(a) is dict and a.keys() in _SHAPES["assignment"] and type(a[kind]) is str
                and type(a["account"]) is str and type(a["permission_set"]) is str):
            a = _record(a, "assignment", f"assignments[{i}]")
            if (a["user"] is None) == (a["group"] is None):
                raise ScenarioError(
                    [f"assignments[{i}]: exactly one of 'user' or 'group' is required"])
            kind = "user" if a["group"] is None else "group"
        rows.append((a[kind], a["account"], a["permission_set"], kind))
    rows.sort()
    assignments = [_new_tuple(Assignment, (kind, subject, account, ps))
                   for subject, account, ps, kind in rows]

    resources = []
    for i, r in enumerate(top["resources"]):
        if not (type(r) is dict and r.keys() in _SHAPES["resource"] and type(r["arn"]) is str
                and type(r["owner_account"]) is str):
            r = _record(r, "resource", f"resources[{i}]")
        policy = r.get("resource_policy")  # null is the same as absent
        if policy is not None:
            policy = _parse_embedded_policy(policy, f"resource-policy:{r['arn']}", "resources", i)
        resources.append(Resource(r["arn"], r["owner_account"], policy))

    shares = []
    for i, s in enumerate(top["shares"]):
        if not (type(s) is dict and s.keys() in _SHAPES["share"] and type(s["resource"]) is str
                and _strings(s["shared_with"])):
            s = _record(s, "share", f"shares[{i}]")
        shares.append(ResourceShare(s["resource"], tuple(s["shared_with"])))

    org = Organization(
        root=root,
        management_account=org_obj["management_account"],
        users=tuple(sorted(users, key=attrgetter("id"))),
        groups=tuple(sorted(groups, key=attrgetter("id"))),
        permission_sets=tuple(sorted(permission_sets, key=attrgetter("id"))),
        assignments=tuple(assignments),
        resources=tuple(sorted(resources, key=attrgetter("arn"))),
        shares=tuple(sorted(shares, key=attrgetter("resource", "shared_with"))),
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

    def unique_ids(ids: Iterator[str], what: str) -> set[str]:
        seen: set[str] = set()
        for i in ids:
            if i in seen:
                out.append(f"duplicate {what} id {i!r}")
            seen.add(i)
        return seen

    user_ids = unique_ids(map(attrgetter("id"), org.users), "user")
    group_ids = unique_ids(map(attrgetter("id"), org.groups), "group")
    ps_ids = unique_ids(map(attrgetter("id"), org.permission_sets), "permission set")

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

    seen_assignments: set[Assignment] = set()
    for a in org.assignments:
        kind, subject, account, ps = a
        duplicate = a in seen_assignments
        seen_assignments.add(a)
        known = user_ids if kind == "user" else group_ids if kind == "group" else ()
        if duplicate or subject not in known or account not in seen_accounts or ps not in ps_ids:
            label = f"({kind} {subject}, account {account}, permission set {ps})"
            if duplicate:
                out.append(f"duplicate assignment {label}")
            if kind not in ("user", "group"):
                out.append(f"assignment {label}: unknown subject kind")
            elif kind == "user" and subject not in user_ids:
                out.append(f"assignment {label}: unknown user {subject}")
            elif kind == "group" and subject not in group_ids:
                out.append(f"assignment {label}: unknown group {subject}")
            if account not in seen_accounts:
                out.append(f"assignment {label}: unknown account {account}")
            if ps not in ps_ids:
                out.append(f"assignment {label}: unknown permission set {ps}")

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
    with open_text(path) as fh:
        text = fh.read()
    problem = utf8_problem(text, path)
    if problem:
        raise ScenarioError([problem])
    # The load allocates about 120k containers, none of them in a reference
    # cycle and all alive until the org is dropped, so a collection during it
    # frees nothing; the cyclic collector is paused process-wide for the
    # length of the load, and left off if it was off.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            scenario = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also too deep, or a too-long int
            raise ScenarioError([f"{path}: malformed JSON: {exc}"]) from exc
        return build_org(scenario)
    finally:
        if collecting:
            gc.enable()


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
    used = {int(a.id) for a in org.accounts if a.id.isascii() and a.id.isdigit()}
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


def grant_keys(user: SsoUser, account_id: str) -> list[tuple[str, str, str]]:
    """The :attr:`Organization.permission_set_ids_by_subject` keys of the
    assignments that grant ``user`` access in ``account_id``: its own, and
    each of its groups'. The one statement of who holds what."""
    return [("user", user.id, account_id)] + [("group", g, account_id) for g in user.groups]


def resolve_permission_set_ids(org: Organization, user_id: str, account_id: str) -> tuple[str, ...]:
    """Permission sets reaching (user, account) directly or via groups,
    deduplicated, ascending by id."""
    user = org.user(user_id)
    if not org.has_account(account_id):
        raise LookupError(f"unknown account: {account_id}")
    index = org.permission_set_ids_by_subject
    return tuple(sorted({ps for key in grant_keys(user, account_id) for ps in index.get(key, ())}))


def shares_covering(org: Organization, arn: str, account_id: str) -> bool:
    """True iff some share exposes the resource to the account."""
    return account_id in org.shared_accounts_by_arn.get(arn, ())
