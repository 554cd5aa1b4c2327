"""Shared generators for property and differential tests.

Hypothesis strategies cover the policy grammar; the seeded ``random``
builders produce whole scenario documents, request batches and activity
logs for the engine-vs-oracle and replay suites. Everything is
deterministic under a fixed seed.
"""

from __future__ import annotations

import copy
import random

from hypothesis import strategies as st

from iamsim import AccessRequest, build_org

SERVICES = ["acm", "athena", "dynamodb", "ec2", "iam", "lambda", "rds", "route53", "s3"]

# Verbs present in the built-in table plus a few deliberately absent ones.
TABLE_VERBS = ["Get", "List", "Describe", "Head", "Put", "Create", "Update",
               "Delete", "Modify", "Attach", "Detach"]
UNLISTED_VERBS = ["Tag", "Invoke", "Run", "Reboot"]
NOUNS = ["Object", "Bucket", "Instance", "Table", "Item", "Certificate",
         "Role", "Function", "Record", "Image"]

CONCRETE_ACTIONS = [
    "s3:GetObject", "s3:PutObject", "s3:DeleteObject", "s3:ListBucket",
    "ec2:StartInstances", "ec2:DescribeInstances", "dynamodb:PutItem", "iam:ListRoles",
]

ACTION_PATTERNS = [
    "*", "s3:*", "s3:Get*", "s3:Put*", "s3:Delete*", "s3:GetObject", "s3:PutObject",
    "ec2:*", "ec2:Describe*", "ec2:StartInstances", "dynamodb:*", "dynamodb:PutItem",
    "iam:List*",
]

RESOURCE_PATTERNS = [
    "*", "arn:aws:s3:::bkt-0", "arn:aws:s3:::bkt-0*", "arn:aws:s3:::bkt-1",
    "arn:aws:s3:::*", "arn:aws:s3:::bkt-2/*", "arn:*",
]

REGISTRABLE_ARNS = ["arn:aws:s3:::bkt-0", "arn:aws:s3:::bkt-1", "arn:aws:s3:::bkt-2"]

REQUEST_RESOURCES = REGISTRABLE_ARNS + [
    "arn:aws:s3:::bkt-2/data.csv", "arn:aws:s3:::unregistered",
]

CONTEXTS = [
    {}, {"env": "prod"}, {"env": "dev"}, {"path": "team/red"},
    {"env": "prod", "path": "team/blue"},
]

CONDITIONS = [
    {"StringEquals": {"env": ["prod"]}},
    {"StringLike": {"path": ["team/*"]}},
    {"StringEquals": {"env": ["dev", "prod"]}},
]


# ---------------------------------------------------------------------------
# hypothesis strategies

services = st.sampled_from(SERVICES)
operations = st.builds(
    "".join, st.tuples(st.sampled_from(TABLE_VERBS + UNLISTED_VERBS), st.sampled_from(NOUNS))
)
concrete_actions = st.builds("{}:{}".format, services, operations)

action_pattern_texts = st.one_of(
    st.just("*"),
    st.builds("{}:*".format, services),
    st.builds("{}:{}*".format, services, st.sampled_from(TABLE_VERBS + UNLISTED_VERBS)),
    st.builds("{}:{}".format, services, operations),
)

resource_pattern_texts = st.sampled_from(RESOURCE_PATTERNS)

glob_patterns = st.text(alphabet="ab:/*", min_size=0, max_size=10)
glob_texts = st.text(alphabet="ab:/", min_size=0, max_size=10)

condition_objs = st.dictionaries(
    st.sampled_from(["StringEquals", "StringLike"]),
    st.dictionaries(
        st.sampled_from(["env", "path", "team"]),
        st.lists(st.sampled_from(["prod", "dev", "team/*", "red"]), min_size=1, max_size=2),
        min_size=1, max_size=2,
    ),
    min_size=1, max_size=2,
)


def _statement_obj(effect, actions, resources, principal, condition):
    out = {"Effect": effect}
    if principal is not None:
        out["Principal"] = principal
    out["Action"] = actions
    out["Resource"] = resources
    if condition is not None:
        out["Condition"] = condition
    return out


statement_objs = st.builds(
    _statement_obj,
    st.sampled_from(["Allow", "Deny"]),
    st.one_of(st.sampled_from(ACTION_PATTERNS),
              st.lists(st.sampled_from(ACTION_PATTERNS), min_size=1, max_size=3)),
    st.one_of(st.sampled_from(RESOURCE_PATTERNS),
              st.lists(st.sampled_from(RESOURCE_PATTERNS), min_size=1, max_size=3)),
    st.one_of(st.none(), st.sampled_from(["user01", "111111111111"]),
              st.lists(st.sampled_from(["user01", "user02", "111111111111"]),
                       min_size=1, max_size=2)),
    st.one_of(st.none(), condition_objs),
)

policy_objs = st.builds(
    lambda stmts: {"Version": "2012-10-17", "Statement": stmts},
    st.lists(statement_objs, max_size=4),
)


# ---------------------------------------------------------------------------
# single mutations of decoded JSON documents

JSON_JUNK = (5, None, "x", [], {}, ["x"], [5])
JSON_KEYS = ("x", "id", "name", "user", "group", "context", "resource_policy", "Condition")


def json_slots(value) -> list:
    """(container, key) for every value nested in a decoded JSON value."""
    slots, stack = [], [value]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            for key in (list(node) if isinstance(node, dict) else range(len(node))):
                slots.append((node, key))
                stack.append(node[key])
    return slots


def mutate_json(value, draw):
    """Return ``value`` after one mutation drawn with ``draw`` (a hypothesis
    ``data.draw``): some node, or the whole value, replaced by a junk value,
    an object key dropped, or an object key added. Mutates in place."""
    slots = json_slots(value)
    objects = [node for node in [value, *(n[k] for n, k in slots)] if isinstance(node, dict)]
    keyed = [(node, key) for node, key in slots if isinstance(node, dict)]
    op = draw(st.sampled_from(["replace", "drop", "add"] if keyed else ["replace", "add"]))
    junk = copy.deepcopy(draw(st.sampled_from(JSON_JUNK)))
    if op == "add" and objects:
        draw(st.sampled_from(objects))[draw(st.sampled_from(JSON_KEYS))] = junk
    elif op == "drop":
        node, key = draw(st.sampled_from(keyed))
        del node[key]
    else:
        index = draw(st.integers(0, len(slots)))
        if index == len(slots):
            return junk
        node, key = slots[index]
        node[key] = junk
    return value


# ---------------------------------------------------------------------------
# seeded random scenario builders

def random_scenario(
    rng: random.Random,
    n_accounts: int = 3,
    n_users: int = 4,
    n_groups: int = 2,
    n_permission_sets: int = 3,
    deny_rate: float = 0.2,
    condition_rate: float = 0.25,
    account_principals_only: bool = False,
    max_groups_per_user: int = 2,
) -> dict:
    accounts = [str(100000000001 + i) for i in range(n_accounts)]
    users = [f"user{i:02d}" for i in range(n_users)]
    groups = [f"group{i}" for i in range(n_groups)]

    def statement():
        effect = "Deny" if rng.random() < deny_rate else "Allow"
        stmt = {
            "Effect": effect,
            "Action": rng.sample(ACTION_PATTERNS, k=rng.randint(1, 2)),
            "Resource": rng.sample(RESOURCE_PATTERNS, k=rng.randint(1, 2)),
        }
        if rng.random() < condition_rate:
            stmt["Condition"] = rng.choice(CONDITIONS)
        return stmt

    permission_sets = []
    for i in range(n_permission_sets):
        policies = [
            {
                "name": f"pol{i}{j}",
                "document": {
                    "Version": "2012-10-17",
                    "Statement": [statement() for _ in range(rng.randint(1, 3))],
                },
            }
            for j in range(rng.randint(1, 2))
        ]
        permission_sets.append({"id": f"ps{i:02d}", "policies": policies})

    memberships = {u: sorted(rng.sample(groups, k=rng.randint(0, min(max_groups_per_user, n_groups))))
                   for u in users} if groups else {u: [] for u in users}

    triples = set()
    assignments = []
    for _ in range(rng.randint(n_users, n_users * 2)):
        if groups and rng.random() < 0.4:
            subject_key, subject = "group", rng.choice(groups)
        else:
            subject_key, subject = "user", rng.choice(users)
        account = rng.choice(accounts)
        ps = rng.choice(permission_sets)["id"]
        if (subject_key, subject, account, ps) in triples:
            continue
        triples.add((subject_key, subject, account, ps))
        assignments.append({subject_key: subject, "account": account, "permission_set": ps})

    resources = []
    shares = []
    principal_pool = accounts if account_principals_only else users + accounts
    for arn in REGISTRABLE_ARNS:
        if rng.random() < 0.3:
            continue
        owner = rng.choice(accounts)
        entry = {"arn": arn, "owner_account": owner}
        if rng.random() < 0.5:
            candidates = [p for p in principal_pool if p != owner]
            stmts = []
            for _ in range(rng.randint(1, 2)):
                stmt = {
                    "Effect": "Deny" if rng.random() < deny_rate else "Allow",
                    "Principal": sorted(rng.sample(candidates, k=rng.randint(1, 2))),
                    "Action": rng.sample(ACTION_PATTERNS, k=rng.randint(1, 2)),
                    "Resource": rng.choice([arn, arn + "*", "*"]),
                }
                stmts.append(stmt)
            entry["resource_policy"] = {"Version": "2012-10-17", "Statement": stmts}
        resources.append(entry)
        others = [a for a in accounts if a != owner]
        if others and rng.random() < 0.4:
            shares.append({
                "resource": arn,
                "shared_with": sorted(rng.sample(others, k=rng.randint(1, len(others)))),
            })

    half = max(1, n_accounts // 2)
    return {
        "organization": {
            "management_account": accounts[0],
            "root": {
                "name": "Root",
                "accounts": [{"id": a, "name": f"acct-{a}"} for a in accounts[:half]],
                "children": [{
                    "name": "Unit",
                    "accounts": [{"id": a, "name": f"acct-{a}"} for a in accounts[half:]],
                }] if accounts[half:] else [],
            },
        },
        "users": [{"id": u, "groups": memberships[u]} for u in users],
        "groups": [{"id": g} for g in groups],
        "permission_sets": permission_sets,
        "assignments": assignments,
        "resources": resources,
        "shares": shares,
    }


def random_org(rng: random.Random, **kwargs):
    return build_org(random_scenario(rng, **kwargs))


def random_request(rng: random.Random, org) -> AccessRequest:
    return AccessRequest(
        user=rng.choice([u.id for u in org.users]),
        account=rng.choice([a.id for a in org.accounts]),
        action=rng.choice(CONCRETE_ACTIONS),
        resource=rng.choice(REQUEST_RESOURCES),
        context=dict(rng.choice(CONTEXTS)),
    )


def random_concrete_action(rng: random.Random, unlisted_rate: float = 0.03) -> str:
    service = rng.choice(SERVICES)
    pool = UNLISTED_VERBS if rng.random() < unlisted_rate else TABLE_VERBS
    return f"{service}:{rng.choice(pool)}{rng.choice(NOUNS)}"


# ---------------------------------------------------------------------------
# exhaustive small universes for the engine-vs-oracle differential

_A, _B, _C = "111111111111", "222222222222", "333333333333"
_UNIVERSE_ACTIONS = ["s3:GetObject", "s3:PutObject", "s3:DeleteObject", "ec2:StartInstances"]
_UNIVERSE_RESOURCES = ["arn:aws:s3:::bkt-0", "arn:aws:s3:::bkt-0/item", "arn:aws:s3:::bkt-9"]
_UNIVERSE_CONTEXTS = [{}, {"env": "prod", "path": "team/red"}]


def _base_universe(permission_sets, assignments, resources=(), shares=(), memberships=None):
    memberships = memberships or {}
    return {
        "organization": {
            "management_account": _A,
            "root": {
                "name": "Root",
                "accounts": [{"id": a, "name": n} for a, n in
                             ((_A, "alpha"), (_B, "bravo"), (_C, "charlie"))],
            },
        },
        "users": [{"id": f"u{i}", "groups": memberships.get(f"u{i}", [])} for i in range(1, 5)],
        "groups": [{"id": "g1"}],
        "permission_sets": permission_sets,
        "assignments": assignments,
        "resources": list(resources),
        "shares": list(shares),
    }


def _doc(*statements):
    return {"Version": "2012-10-17", "Statement": list(statements)}


def _ps(ps_id, *statements):
    return {"id": ps_id, "policies": [{"name": f"{ps_id}-pol", "document": _doc(*statements)}]}


def exhaustive_universes() -> list:
    """Hand-built small orgs covering every decision rule; paired with the
    full request cross product, they pin the engine to the oracle."""
    bkt = "arn:aws:s3:::bkt-0"
    universes = []

    # identity-only, wildcard breadth
    universes.append(_base_universe(
        [_ps("p0", {"Effect": "Allow", "Action": "s3:*", "Resource": "*"}),
         _ps("p1", {"Effect": "Allow", "Action": "*", "Resource": bkt})],
        [{"user": "u1", "account": _A, "permission_set": "p0"},
         {"user": "u2", "account": _B, "permission_set": "p1"}],
    ))

    # explicit identity deny over a broad allow
    universes.append(_base_universe(
        [_ps("p0",
             {"Effect": "Allow", "Action": "s3:*", "Resource": "*"},
             {"Effect": "Deny", "Action": "s3:DeleteObject", "Resource": "*"})],
        [{"user": "u1", "account": _A, "permission_set": "p0"},
         {"user": "u3", "account": _C, "permission_set": "p0"}],
    ))

    # cross-account via resource policy naming a user
    universes.append(_base_universe(
        [_ps("p0", {"Effect": "Allow", "Action": "s3:*", "Resource": "*"})],
        [{"user": f"u{i}", "account": a, "permission_set": "p0"}
         for i, a in ((1, _A), (2, _B), (3, _C))],
        resources=[{
            "arn": bkt, "owner_account": _A,
            "resource_policy": _doc({
                "Effect": "Allow", "Principal": ["u3"],
                "Action": "s3:GetObject", "Resource": bkt,
            }),
        }],
    ))

    # cross-account via share, no resource policy
    universes.append(_base_universe(
        [_ps("p0", {"Effect": "Allow", "Action": "s3:*", "Resource": "*"})],
        [{"user": "u1", "account": _A, "permission_set": "p0"},
         {"user": "u2", "account": _B, "permission_set": "p0"}],
        resources=[{"arn": bkt, "owner_account": _A}],
        shares=[{"resource": bkt, "shared_with": [_B]}],
    ))

    # conditions gate the identity allow
    universes.append(_base_universe(
        [_ps("p0",
             {"Effect": "Allow", "Action": "s3:*", "Resource": "*",
              "Condition": {"StringEquals": {"env": ["prod"]}}},
             {"Effect": "Allow", "Action": "ec2:*", "Resource": "*",
              "Condition": {"StringLike": {"path": ["team/*"]}}})],
        [{"user": "u1", "account": _A, "permission_set": "p0"},
         {"user": "u4", "account": _B, "permission_set": "p0"}],
    ))

    # resource-only same-account allow (no identity grants at all)
    universes.append(_base_universe(
        [],
        [],
        resources=[{
            "arn": bkt, "owner_account": _A,
            "resource_policy": _doc({
                "Effect": "Allow", "Principal": [_A, "u2"],
                "Action": "s3:GetObject", "Resource": bkt,
            }),
        }],
    ))

    # resource-side deny scoped by principal
    universes.append(_base_universe(
        [_ps("p0", {"Effect": "Allow", "Action": "s3:*", "Resource": "*"})],
        [{"user": f"u{i}", "account": a, "permission_set": "p0"}
         for i, a in ((1, _A), (2, _B), (3, _C))],
        resources=[{
            "arn": bkt, "owner_account": _A,
            "resource_policy": _doc(
                {"Effect": "Deny", "Principal": ["u1", _B],
                 "Action": "s3:PutObject", "Resource": bkt},
                {"Effect": "Allow", "Principal": [_B, _C],
                 "Action": "s3:*", "Resource": bkt + "*"},
            ),
        }],
    ))

    # group-carried grants plus a direct user grant
    universes.append(_base_universe(
        [_ps("p0", {"Effect": "Allow", "Action": "s3:Get*", "Resource": "*"}),
         _ps("p1", {"Effect": "Allow", "Action": "ec2:*", "Resource": "*"})],
        [{"group": "g1", "account": _A, "permission_set": "p0"},
         {"group": "g1", "account": _B, "permission_set": "p1"},
         {"user": "u1", "account": _A, "permission_set": "p1"}],
        memberships={"u1": ["g1"], "u4": ["g1"]},
    ))

    # pattern zoo on the resource side of identity statements
    universes.append(_base_universe(
        [_ps("p0",
             {"Effect": "Allow", "Action": ["s3:Get*", "s3:Put*"],
              "Resource": ["arn:aws:s3:::bkt-0*"]},
             {"Effect": "Deny", "Action": "s3:PutObject", "Resource": "arn:*"})],
        [{"user": "u1", "account": _A, "permission_set": "p0"},
         {"user": "u2", "account": _A, "permission_set": "p0"}],
        resources=[{"arn": "arn:aws:s3:::bkt-9", "owner_account": _B}],
    ))

    out = []
    for scenario in universes:
        org = build_org(scenario)
        requests = [
            AccessRequest(user=u, account=a, action=act, resource=res, context=dict(ctx))
            for u in ("u1", "u2", "u3", "u4")
            for a in (_A, _B, _C)
            for act in _UNIVERSE_ACTIONS
            for res in _UNIVERSE_RESOURCES
            for ctx in _UNIVERSE_CONTEXTS
        ]
        out.append((org, requests))
    return out


# ---------------------------------------------------------------------------
# seeded activity universes for replay tests

def activity_universe(rng: random.Random, n_users: int = 55, n_accounts: int = 8,
                      n_events: int = 2400):
    """An identity-driven org plus a request batch for building activity logs.

    Resource policies name only foreign accounts (the cross-account sharing
    use case), so nothing but a principal's own grants can authorize its
    same-account requests; requests carry no context.
    """
    accounts = [str(100000000001 + i) for i in range(n_accounts)]
    users = [f"user{i:02d}" for i in range(n_users)]
    groups = [f"group{i}" for i in range(6)]

    permission_sets = []
    for i in range(8):
        statements = [{
            "Effect": "Allow",
            "Action": rng.sample([p for p in ACTION_PATTERNS if p != "*"], k=2),
            "Resource": rng.sample(RESOURCE_PATTERNS, k=rng.randint(1, 2)),
        } for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            statements.append({
                "Effect": "Deny",
                "Action": rng.choice(["s3:DeleteObject", "ec2:StartInstances"]),
                "Resource": rng.choice(["*", "arn:aws:s3:::bkt-1"]),
            })
        permission_sets.append({
            "id": f"ps{i:02d}",
            "policies": [{
                "name": f"pol{i}",
                "document": {"Version": "2012-10-17", "Statement": statements},
            }],
        })

    memberships = {u: sorted(rng.sample(groups, k=rng.randint(1, 2))) for u in users}

    triples = set()
    assignments = []
    for g in groups:
        for account in rng.sample(accounts, k=rng.randint(2, 4)):
            ps = rng.choice(permission_sets)["id"]
            if (g, account, ps) in triples:
                continue
            triples.add((g, account, ps))
            assignments.append({"group": g, "account": account, "permission_set": ps})
    for u in rng.sample(users, k=10):
        account = rng.choice(accounts)
        ps = rng.choice(permission_sets)["id"]
        if (u, account, ps) not in triples:
            triples.add((u, account, ps))
            assignments.append({"user": u, "account": account, "permission_set": ps})

    resources = []
    shares = []
    for arn in REGISTRABLE_ARNS:
        owner = rng.choice(accounts)
        entry = {"arn": arn, "owner_account": owner}
        foreign = [a for a in accounts if a != owner]
        if rng.random() < 0.6:
            entry["resource_policy"] = _doc({
                "Effect": "Allow",
                "Principal": sorted(rng.sample(foreign, k=rng.randint(2, 4))),
                "Action": ["s3:Get*", "s3:Put*"],
                "Resource": arn + "*",
            })
        resources.append(entry)
        if rng.random() < 0.5:
            shares.append({
                "resource": arn,
                "shared_with": sorted(rng.sample(foreign, k=rng.randint(1, 3))),
            })

    scenario = {
        "organization": {
            "management_account": accounts[0],
            "root": {
                "name": "Root",
                "accounts": [{"id": a, "name": f"acct-{a}"} for a in accounts],
            },
        },
        "users": [{"id": u, "groups": memberships[u]} for u in users],
        "groups": [{"id": g} for g in groups],
        "permission_sets": permission_sets,
        "assignments": assignments,
        "resources": resources,
        "shares": shares,
    }
    org = build_org(scenario)

    assigned_accounts = {}
    for u in users:
        reach = {a["account"] for a in assignments
                 if ("group" in a and a["group"] in memberships[u])
                 or ("user" in a and a["user"] == u)}
        assigned_accounts[u] = sorted(reach) or accounts

    requests = []
    for _ in range(n_events):
        user = rng.choice(users)
        requests.append(AccessRequest(
            user=user,
            account=rng.choice(assigned_accounts[user]),
            action=rng.choice(CONCRETE_ACTIONS),
            resource=rng.choice(REQUEST_RESOURCES),
        ))
    return org, requests
