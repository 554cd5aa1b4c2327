#!/usr/bin/env python3
"""Generate a seeded synthetic activity log for a scenario.

Builds random but reproducible traffic from the scenario's own principals
(every user/account pair reachable through an assignment), decides each
request with the engine, sprinkles in login events, and writes one
``<account-id>.jsonl`` log per producing account plus a merged
``archive.jsonl``. The output feeds ``iamsim analyze`` and ``iamsim audit``
experiments.

Usage:
    python scripts/make_activity_log.py --scenario scenarios/demo-org.json \
        --events 500 --seed 7 --out-dir logs
"""

import argparse
import random
import sys
from datetime import timedelta
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from iamsim import AccessRequest, AuditEvent, EventKind, Verdict, load_scenario, simulate
from iamsim.audit import archive_from_events, write_archive
from iamsim.engine import SIMULATION_EPOCH
from iamsim.org import grant_keys

ACTIONS = [
    "s3:GetObject", "s3:PutObject", "s3:ListBucket", "s3:DeleteObject",
    "ec2:DescribeInstances", "ec2:StartInstances", "rds:DescribeDBInstances",
    "dynamodb:PutItem", "athena:StartQueryExecution", "iam:ListRoles",
]

EXTRA_RESOURCES = [
    "arn:aws:s3:::team-artifacts", "arn:aws:s3:::team-artifacts/build.tar.gz",
    "arn:aws:dynamodb-sessions", "arn:aws:ec2-instance-i-0a1b",
]


def reachable_principals(org):
    """Every (user, account) pair that some assignment grants, sorted."""
    index = org.permission_set_ids_by_subject
    return sorted(
        (user.id, account.id) for user in org.users for account in org.accounts
        if any(key in index for key in grant_keys(user, account.id))
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--events", type=int, default=500)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--login-rate", type=float, default=0.1)
    parser.add_argument("--out-dir", default="logs")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    org = load_scenario(args.scenario)
    principals = reachable_principals(org)
    if not principals:
        print("scenario has no assigned principals; nothing to do", file=sys.stderr)
        return 2

    resources = [r.arn for r in org.resources] + EXTRA_RESOURCES
    requests = [
        AccessRequest(
            user=user, account=account,
            action=rng.choice(ACTIONS), resource=rng.choice(resources),
        )
        for user, account in (rng.choice(principals) for _ in range(args.events))
    ]

    events = []
    simulate(org, requests, sink=events.append)

    n_logins = int(args.events * args.login_rate)
    for i in range(n_logins):
        user, account = rng.choice(principals)
        events.append(AuditEvent(
            time=SIMULATION_EPOCH + timedelta(seconds=rng.randrange(args.events)),
            kind=EventKind.LOGIN,
            user=user,
            account=account,
            verdict=Verdict.ALLOW if rng.random() > 0.05 else Verdict.DENY,
        ))

    archive = archive_from_events(events)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for account in sorted(archive.accounts_covered):
        per_account = archive_from_events(
            e for e in archive.events if e.source == account
        )
        write_archive(per_account, out_dir / f"{account}.jsonl")
        print(f"{out_dir / f'{account}.jsonl'}: {len(per_account)} events")
    write_archive(archive, out_dir / "archive.jsonl")
    allows = sum(1 for e in archive.events if e.verdict is Verdict.ALLOW)
    print(f"{out_dir / 'archive.jsonl'}: {len(archive)} events total, {allows} allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
