"""Seeded, stdlib-only input generator for the iamsim benchmark.

``generate(workload, seed, out_dir)`` writes one workload's inputs:

- ``scenario.json``: the organization, in the scenario-file format,
- ``requests.jsonl``: the request batch for the decision loop and
  ``iamsim simulate``,
- ``logs/<account>.jsonl``: one audit log per account for ``iamsim audit``,
- ``manifest.json``: the shape this seed produced, the principal chosen for
  the hot traffic, each request's category, and the audit queries with
  their expected counts, recounted naively over the events generated here.

The same workload and seed always give byte-identical files. Nothing here
imports iamsim: the program under test receives only these files.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

# service -> (arn template, concrete operations); {a} is the owner account
SERVICES = {
    "s3": ("arn:aws:s3:::bkt-{a}-{k}",
           ["GetObject", "PutObject", "DeleteObject", "ListBucket", "HeadObject",
            "GetBucketPolicy", "PutBucketPolicy", "DeleteBucket"]),
    "dynamodb": ("arn:aws:dynamodb:us-east-1:{a}:table/t{k}",
                 ["GetItem", "PutItem", "DeleteItem", "Query", "Scan", "UpdateItem",
                  "DescribeTable", "DeleteTable"]),
    "sqs": ("arn:aws:sqs:us-east-1:{a}:q{k}",
            ["SendMessage", "ReceiveMessage", "DeleteMessage", "GetQueueAttributes",
             "PurgeQueue", "CreateQueue"]),
    "kms": ("arn:aws:kms:us-east-1:{a}:key/k{k}",
            ["Decrypt", "Encrypt", "DescribeKey", "CreateGrant", "ScheduleKeyDeletion"]),
    "lambda": ("arn:aws:lambda:us-east-1:{a}:function:f{k}",
               ["InvokeFunction", "GetFunction", "UpdateFunctionCode", "DeleteFunction",
                "ListVersionsByFunction"]),
}
SERVICE_NAMES = sorted(SERVICES)
SERVICE_GLOBS = {
    "s3": "arn:aws:s3:::*",
    "dynamodb": "arn:aws:dynamodb:*",
    "sqs": "arn:aws:sqs:*",
    "kms": "arn:aws:kms:*",
    "lambda": "arn:aws:lambda:*",
}
ENVS = ["prod", "dev", "test", "stage"]
TEAMS = ["team-red", "team-blue", "team-green", "ops", "data"]

EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)
TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
LOG_SPAN_SECONDS = 30 * 86400
# share of requests whose action is of the resource's own service
SERVICE_MATCH = 0.85
# services the hot principal's operator permission set allows
OPERATOR_SERVICES = ("dynamodb", "s3", "sqs")


@dataclass(frozen=True)
class Shape:
    """Sizes and rates of one workload's inputs. Ranges are inclusive.

    The traffic rates (``hot_share``, ``mix``, ``login_rate``,
    ``log_deny_rate`` and :data:`SERVICE_MATCH`) are assumed: no public
    measurement of cross-account IAM traffic backs them. The benchmark
    therefore also reports decide time per request category, so that a
    result can be re-weighted to another mix.
    """

    ou_fanout: tuple[int, ...]  # children per OU level; leaves hold the accounts
    accounts: int
    users: int
    groups: int
    groups_per_user: tuple[int, int]
    permission_sets: int
    policies_per_set: tuple[int, int]
    statements_per_policy: tuple[int, int]
    actions_per_statement: tuple[int, int]
    resources_per_statement: tuple[int, int]
    services_per_set: int
    deny_rate: float
    condition_rate: float
    assignments: int
    group_assignments: int
    resources: int
    resource_policy_rate: float
    resource_statements: tuple[int, int]
    shares: int
    requests: int
    hot_share: float
    mix: tuple[float, float, float, float]  # same, cross, shared, unregistered
    context_rate: float
    log_events: int
    login_rate: float
    log_deny_rate: float


SHAPES = {
    # The ROADMAP large org: 200 accounts, 5k users, ~100 groups, 20k
    # assignments, 2k resources (~30% with policies), 1k shares.
    "large-org": Shape(
        ou_fanout=(5, 4), accounts=200, users=5000, groups=100, groups_per_user=(1, 2),
        permission_sets=60, policies_per_set=(2, 2), statements_per_policy=(3, 3),
        actions_per_statement=(1, 3), resources_per_statement=(1, 2), services_per_set=2,
        deny_rate=0.1, condition_rate=0.0,
        assignments=20000, group_assignments=1000,
        resources=2000, resource_policy_rate=0.3, resource_statements=(2, 2), shares=1000,
        requests=1000, hot_share=0.05, mix=(0.4, 0.25, 0.2, 0.15), context_rate=0.0,
        log_events=4000, login_rate=0.1, log_deny_rate=0.2,
    ),
    # A small org whose permission sets put tens of statements in scope per
    # request, with conditions that the request contexts exercise.
    "policy-dense": Shape(
        ou_fanout=(2,), accounts=8, users=60, groups=6, groups_per_user=(1, 1),
        permission_sets=12, policies_per_set=(3, 3), statements_per_policy=(8, 8),
        actions_per_statement=(2, 4), resources_per_statement=(1, 3), services_per_set=3,
        deny_rate=0.1, condition_rate=0.4,
        assignments=150, group_assignments=10,
        resources=60, resource_policy_rate=0.5, resource_statements=(3, 3), shares=20,
        requests=1500, hot_share=0.05, mix=(0.45, 0.25, 0.15, 0.15), context_rate=1.0,
        log_events=4000, login_rate=0.1, log_deny_rate=0.2,
    ),
    # ~100k audit events over one log per account for 200 accounts; the org
    # itself is sparse so the decision commands stay cheap.
    "audit-logs": Shape(
        ou_fanout=(5, 4), accounts=200, users=400, groups=20, groups_per_user=(1, 1),
        permission_sets=10, policies_per_set=(1, 1), statements_per_policy=(3, 3),
        actions_per_statement=(2, 3), resources_per_statement=(1, 1), services_per_set=3,
        deny_rate=0.1, condition_rate=0.0,
        assignments=600, group_assignments=40,
        resources=200, resource_policy_rate=0.3, resource_statements=(1, 1), shares=50,
        requests=2000, hot_share=0.05, mix=(0.4, 0.25, 0.2, 0.15), context_rate=0.0,
        log_events=100000, login_rate=0.1, log_deny_rate=0.2,
    ),
}

# Tiny sizes for the benchmark's own smoke test; never used for measurement.
SMOKE_SHAPES = {
    name: dataclasses.replace(
        shape, ou_fanout=(2,), accounts=6, users=30, groups=4, permission_sets=6,
        assignments=60, group_assignments=6, resources=24, shares=6, requests=120,
        log_events=600,
    )
    for name, shape in SHAPES.items()
}


def _verb(operation: str) -> str:
    return re.match(r"[A-Z][a-z]*", operation).group(0)


def _account_ids(n: int) -> list[str]:
    return [f"{300000000000 + i:012d}" for i in range(n)]


def _ou_tree(accounts: list[str], fanout: tuple[int, ...]) -> dict:
    leaves: list[dict] = []

    def build(name: str, depth: int) -> dict:
        node: dict = {"name": name}
        if depth == len(fanout):
            leaves.append(node)
            return node
        node["children"] = [build(f"{name}-{i}", depth + 1) for i in range(fanout[depth])]
        return node

    root = build("ou", 0)
    root["name"] = "Root"
    for i, account in enumerate(accounts):
        leaves[i % len(leaves)].setdefault("accounts", []).append(
            {"id": account, "name": f"acct-{account}"}
        )
    return root


def _action_pattern(rng: random.Random, service: str) -> str:
    ops = SERVICES[service][1]
    roll = rng.random()
    if roll < 0.2:
        return f"{service}:*"
    if roll < 0.55:
        return f"{service}:{_verb(rng.choice(ops))}*"
    return f"{service}:{rng.choice(ops)}"


def _resource_pattern(rng: random.Random, service: str, accounts: list[str]) -> str:
    roll = rng.random()
    if roll < 0.35:
        return "*"
    if roll < 0.8:
        return SERVICE_GLOBS[service]
    return SERVICES[service][0].format(a=rng.choice(accounts), k="*")


def _condition(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return {"StringEquals": {"env": rng.sample(ENVS, k=rng.randint(1, 2))}}
    return {"StringLike": {"path": [f"{rng.choice(TEAMS)}/*"]}}


def _identity_statement(rng: random.Random, shape: Shape, services: list[str],
                        accounts: list[str]) -> dict:
    deny = rng.random() < shape.deny_rate
    n_actions = rng.randint(*shape.actions_per_statement)
    if deny:
        service = rng.choice(services)
        destructive = [op for op in SERVICES[service][1]
                       if op.startswith(("Delete", "Purge", "Schedule"))]
        actions = [f"{service}:{rng.choice(destructive or SERVICES[service][1])}"]
        resources = [SERVICES[service][0].format(a=rng.choice(accounts), k="*")]
    else:
        actions = sorted({_action_pattern(rng, rng.choice(services)) for _ in range(n_actions)})
        resources = sorted({
            _resource_pattern(rng, rng.choice(services), accounts)
            for _ in range(rng.randint(*shape.resources_per_statement))
        })
    stmt: dict = {"Effect": "Deny" if deny else "Allow", "Action": actions, "Resource": resources}
    if rng.random() < shape.condition_rate:
        stmt["Condition"] = _condition(rng)
    return stmt


def _resource_policy(rng: random.Random, shape: Shape, arn: str, service: str,
                     foreign: list[str]) -> tuple[dict, list[str]]:
    """Resource policies name only foreign accounts, so they never grant
    same-account access that a generated least-privilege policy would
    then fail to exclude."""
    named = sorted(rng.sample(foreign, k=min(len(foreign), rng.randint(1, 4))))
    statements = []
    for i in range(rng.randint(*shape.resource_statements)):
        if i > 0 and rng.random() < shape.deny_rate * 3:
            stmt = {"Effect": "Deny", "Principal": named,
                    "Action": [f"{service}:Delete*"], "Resource": [arn]}
            if shape.condition_rate:
                stmt["Condition"] = _condition(rng)
        else:
            stmt = {"Effect": "Allow", "Principal": named,
                    "Action": sorted({_action_pattern(rng, service) for _ in range(2)}),
                    "Resource": [arn, arn + "*"] if service == "s3" else [arn]}
        statements.append(stmt)
    return {"Version": "2012-10-17", "Statement": statements}, named


def _event_line(when: datetime, kind: str, user: str, account: str, action: str,
                resource: str, verdict: str) -> dict:
    return {"time": when.strftime(TIME_FORMAT), "kind": kind, "user": user,
            "account": account, "action": action, "resource": resource,
            "verdict": verdict, "source": account}


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def generate(workload: str, seed: int, out_dir: Path, smoke: bool = False) -> dict:
    """Write the workload's inputs for ``seed`` into ``out_dir``; return the manifest."""
    shape = (SMOKE_SHAPES if smoke else SHAPES)[workload]
    rng = random.Random(f"{workload}:{seed}")
    out_dir = Path(out_dir)
    (out_dir / "logs").mkdir(parents=True, exist_ok=True)

    accounts = _account_ids(shape.accounts)
    users = [f"user-{i:05d}" for i in range(shape.users)]
    groups = [f"grp-{i:03d}" for i in range(shape.groups)]
    memberships = {
        u: sorted(rng.sample(groups, k=rng.randint(*shape.groups_per_user))) for u in users
    }

    permission_sets = []
    for i in range(shape.permission_sets):
        services = rng.sample(SERVICE_NAMES, k=shape.services_per_set)
        policies = []
        for j in range(rng.randint(*shape.policies_per_set)):
            statements = [
                _identity_statement(rng, shape, services, accounts)
                for _ in range(rng.randint(*shape.statements_per_policy))
            ]
            policies.append({"name": f"policy-{j}",
                             "document": {"Version": "2012-10-17", "Statement": statements}})
        permission_sets.append({"id": f"ps-{i:03d}", "policies": policies})
    ps_ids = [p["id"] for p in permission_sets]
    # the hot principal's operator access: broad Allows in its own account
    permission_sets.append({"id": "ps-operator", "policies": [{
        "name": "operator",
        "document": {"Version": "2012-10-17", "Statement": [
            {"Effect": "Allow", "Action": [f"{s}:*" for s in OPERATOR_SERVICES], "Resource": "*"},
        ]},
    }]})

    hot = (users[0], accounts[0])
    seen: set[tuple[str, str, str, str]] = {("user", hot[0], hot[1], "ps-operator")}
    assignments = [{"user": hot[0], "account": hot[1], "permission_set": "ps-operator"}]

    def assign(kind: str, subjects: list[str], total: int) -> None:
        """Add assignments of ``kind`` until there are ``total``. They go round
        the subjects, each subject's in distinct accounts while it has
        accounts left, so that the permission sets per principal, and so the
        statements in scope of the costliest requests, vary little from seed
        to seed."""
        free: dict[str, list[str]] = {s: [] for s in subjects}
        i = 0
        while len(assignments) < total:
            subject = subjects[i % len(subjects)]
            i += 1
            if not free[subject]:
                free[subject] = rng.sample(accounts, k=len(accounts))
            key = (kind, subject, free[subject].pop(), rng.choice(ps_ids))
            if key not in seen:
                seen.add(key)
                assignments.append({kind: key[1], "account": key[2], "permission_set": key[3]})

    assign("group", groups, shape.group_assignments + 1)
    assign("user", users, shape.assignments)

    members: dict[str, list[str]] = {g: [] for g in groups}
    for u in users:
        for g in memberships[u]:
            members[g].append(u)
    principals: set[tuple[str, str]] = set()
    for kind, subject, account, _ in seen:
        if kind == "user":
            principals.add((subject, account))
        else:
            principals.update((u, account) for u in members[subject])
    principal_list = sorted(principals)

    resources = []
    owned: dict[str, list[str]] = {a: [] for a in accounts}
    naming: dict[str, list[str]] = {a: [] for a in accounts}
    service_of: dict[str, str] = {}
    for k in range(shape.resources):
        owner = accounts[k % len(accounts)]
        service = SERVICE_NAMES[k % len(SERVICE_NAMES)]
        arn = SERVICES[service][0].format(a=owner, k=k)
        entry: dict = {"arn": arn, "owner_account": owner}
        if int((k + 1) * shape.resource_policy_rate) > int(k * shape.resource_policy_rate):
            foreign = [a for a in accounts if a != owner]
            entry["resource_policy"], named = _resource_policy(rng, shape, arn, service, foreign)
            for a in named:
                naming[a].append(arn)
        resources.append(entry)
        owned[owner].append(arn)
        service_of[arn] = service
    arns = [r["arn"] for r in resources]
    owner_of = {r["arn"]: r["owner_account"] for r in resources}

    shares = []
    shared_to: dict[str, list[str]] = {a: [] for a in accounts}
    for arn in sorted(rng.sample(arns, k=min(shape.shares, len(arns)))):
        foreign = [a for a in accounts if a != owner_of[arn]]
        with_ = sorted(rng.sample(foreign, k=min(len(foreign), rng.randint(1, 3))))
        shares.append({"resource": arn, "shared_with": with_})
        for a in with_:
            shared_to[a].append(arn)

    scenario = {
        "organization": {"management_account": accounts[0],
                         "root": _ou_tree(accounts, shape.ou_fanout)},
        "users": [{"id": u, "display_name": u.title(), "groups": memberships[u]} for u in users],
        "groups": [{"id": g, "display_name": g.upper()} for g in groups],
        "permission_sets": permission_sets,
        "assignments": assignments,
        "resources": resources,
        "shares": shares,
    }
    (out_dir / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")

    # requests: exactly hot_share of them are the hot principal's, each an
    # operator call on a resource of its own account that its grant allows,
    # so the policy ``generate`` derives for it is about the same size on
    # every seed; the rest are uniform over every (user, account) pair some
    # assignment reaches
    hot_requests = set(rng.sample(range(shape.requests),
                                  k=round(shape.hot_share * shape.requests)))
    hot_arns = [arn for arn in owned[hot[1]] if service_of[arn] in OPERATOR_SERVICES]
    categories = {"same": 0, "cross": 0, "shared": 0, "unregistered": 0}
    request_categories = []
    lines = []
    for n in range(shape.requests):
        user, account = hot if n in hot_requests else rng.choice(principal_list)
        roll = rng.random()
        same, cross, shared, _ = shape.mix
        if n in hot_requests:
            category = "same"
        elif roll < same:
            category = "same" if owned[account] else "unregistered"
        elif roll < same + cross:
            category = "cross"
        elif roll < same + cross + shared:
            category = "shared" if shared_to[account] else "cross"
        else:
            category = "unregistered"
        if n in hot_requests:
            arn = rng.choice(hot_arns)
        elif category == "same":
            arn = rng.choice(owned[account])
        elif category == "shared":
            arn = rng.choice(shared_to[account])
        elif category == "cross":
            arn = rng.choice(naming[account]) if naming[account] and rng.random() < 0.5 else None
            while arn is None or owner_of[arn] == account:
                arn = rng.choice(arns)
        else:
            service = rng.choice(SERVICE_NAMES)
            arn = SERVICES[service][0].format(a=account, k=f"unreg{n}")
            service_of[arn] = service
        categories[category] += 1
        request_categories.append(category)
        if n in hot_requests or rng.random() < SERVICE_MATCH:
            service = service_of[arn]
        else:
            service = rng.choice(SERVICE_NAMES)
        request: dict = {"user": user, "account": account,
                         "action": f"{service}:{rng.choice(SERVICES[service][1])}",
                         "resource": arn}
        if rng.random() < shape.context_rate:
            request["context"] = {"env": rng.choice(ENVS),
                                  "path": f"{rng.choice(TEAMS)}/{rng.randrange(100)}"}
        lines.append(_dumps(request))
    (out_dir / "requests.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # per-account audit logs, each sorted by time as an account would write it
    per_account: dict[str, list[dict]] = {a: [] for a in accounts}
    for n in range(shape.log_events):
        account = accounts[n % len(accounts)]
        when = EPOCH + timedelta(seconds=rng.randrange(LOG_SPAN_SECONDS))
        user = rng.choice(users)
        verdict = "Deny" if rng.random() < shape.log_deny_rate else "Allow"
        if rng.random() < shape.login_rate:
            event = _event_line(when, "Login", user, account, "", "", verdict)
        else:
            arn = rng.choice(owned[account] or arns)
            service = service_of[arn]
            action = f"{service}:{rng.choice(SERVICES[service][1])}"
            event = _event_line(when, "ApiCall", user, account, action, arn, verdict)
        per_account[account].append(event)
    events = []
    log_files = []
    for account in accounts:
        account_events = sorted(per_account[account], key=lambda e: e["time"])
        if not account_events:
            continue
        path = out_dir / "logs" / f"{account}.jsonl"
        path.write_text("".join(_dumps(e) + "\n" for e in account_events), encoding="utf-8")
        log_files.append(f"logs/{account}.jsonl")
        events.extend(account_events)

    since = (EPOCH + timedelta(days=10)).strftime(TIME_FORMAT)
    until = (EPOCH + timedelta(days=13)).strftime(TIME_FORMAT)
    activity: dict[str, int] = {}
    for e in events:
        activity[e["user"]] = activity.get(e["user"], 0) + 1
    query_user = min(activity, key=lambda u: (-activity[u], u))
    queries = [
        {"name": "user", "argv": ["--user", query_user],
         "expected": sum(1 for e in events if e["user"] == query_user)},
        {"name": "delete", "argv": ["--action", "*:Delete*"],
         "expected": sum(1 for e in events
                         if e["action"] and e["action"].split(":", 1)[1].startswith("Delete"))},
        {"name": "deny", "argv": ["--verdict", "Deny"],
         "expected": sum(1 for e in events if e["verdict"] == "Deny")},
        {"name": "range", "argv": ["--since", since, "--until", until],
         "expected": sum(1 for e in events if since <= e["time"] <= until)},
    ]

    manifest = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "hot_principal": list(hot),
        "request_categories": request_categories,
        "log_files": log_files,
        "queries": queries,
        "denied_bucket": "1h",
        "expected_denies": sum(1 for e in events if e["verdict"] == "Deny"),
        "shape": {
            "accounts": len(accounts),
            "users": len(users),
            "groups": len(groups),
            "permission_sets": len(permission_sets),
            "identity_statements": sum(len(p["document"]["Statement"])
                                       for ps in permission_sets for p in ps["policies"]),
            "assignments": len(assignments),
            "resources": len(resources),
            "resources_with_policy": sum(1 for r in resources if "resource_policy" in r),
            "shares": len(shares),
            "assigned_principals": len(principal_list),
            "requests": shape.requests,
            "log_events": len(events),
            "request_mix": {k: v / shape.requests for k, v in categories.items()},
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest
