"""Usage indexing, unused-statement reporting and policy generation."""

import ast
import dataclasses
import random
import re
from collections import Counter
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iamsim import (
    AccessRequest,
    ActionLevel,
    AuditEvent,
    Effect,
    EventKind,
    RequestError,
    UsageError,
    Verdict,
    VerificationResult,
    authorize,
    build_org,
    build_usage_index,
    classify_action_level,
    generate_least_privilege,
    replay_verify,
    unused_report,
)
from iamsim import engine, parse_policy, policy, usage
from iamsim.org import Assignment, PermissionSet, resolve_permission_set_ids
from iamsim.usage import (
    complement_sample,
    install_sole_permission_set,
    render_unused_report,
    unused_report_obj,
)

from conftest import utc
from generators import (
    CONCRETE_ACTIONS,
    CONDITIONS,
    REQUEST_RESOURCES,
    RESOURCE_PATTERNS,
    random_request,
    random_scenario,
)

ACCT = "777700000001"
BKT_X = "arn:aws:s3:::bkt-x"
BKT_Y = "arn:aws:s3:::bkt-y"


def report_scenario():
    """One backend permission set: full ACM access plus full EC2 access."""
    return {
        "organization": {
            "management_account": ACCT,
            "root": {"name": "Root", "accounts": [{"id": ACCT, "name": "main"}]},
        },
        "users": [{"id": "dev"}],
        "permission_sets": [{
            "id": "backend",
            "policies": [
                {"name": "acm-full", "document": {
                    "Version": "2012-10-17",
                    "Statement": [{"Effect": "Allow", "Action": "acm:*", "Resource": "*"}],
                }},
                {"name": "ec2-ops", "document": {
                    "Version": "2012-10-17",
                    "Statement": [{"Effect": "Allow", "Action": "ec2:*", "Resource": "*"}],
                }},
            ],
        }],
        "assignments": [{"user": "dev", "account": ACCT, "permission_set": "backend"}],
    }


def generation_scenario():
    return {
        "organization": {
            "management_account": ACCT,
            "root": {"name": "Root", "accounts": [{"id": ACCT, "name": "main"}]},
        },
        "users": [{"id": "dev"}, {"id": "ops"}],
        "permission_sets": [{
            "id": "s3-rw",
            "policies": [{"name": "s3-access", "document": {
                "Version": "2012-10-17",
                "Statement": [{"Effect": "Allow", "Action": "s3:*", "Resource": "*"}],
            }}],
        }],
        "assignments": [
            {"user": "dev", "account": ACCT, "permission_set": "s3-rw"},
            {"user": "ops", "account": ACCT, "permission_set": "s3-rw"},
        ],
        "resources": [
            {"arn": BKT_X, "owner_account": ACCT},
            {"arn": BKT_Y, "owner_account": ACCT},
        ],
    }


def api_event(when, user, action, resource, verdict=Verdict.ALLOW, account=ACCT):
    return AuditEvent(time=when, kind=EventKind.API_CALL, user=user, account=account,
                      action=action, resource=resource, verdict=verdict)


GEN_WINDOW = (utc(2024, 1, 1), utc(2024, 1, 2))


def generation_index():
    org = build_org(generation_scenario())
    events = [
        api_event(utc(2024, 1, 1, 0, 0), "dev", "s3:GetObject", BKT_X),
        api_event(utc(2024, 1, 1, 0, 1), "ops", "s3:DeleteObject", BKT_Y),
        api_event(utc(2024, 1, 1, 0, 2), "dev", "s3:PutObject", BKT_X),
    ]
    return build_usage_index(org, events)


class TestIndex:
    def test_single_allow_event_sets_last_used(self):
        org = build_org(report_scenario())
        when = utc(2024, 5, 1, 12)
        index = build_usage_index(org, [
            api_event(when, "dev", "ec2:DescribeInstances", "arn:aws:ec2:::i-1"),
        ])
        assert index.statement_last_used[("backend", "ec2-ops", 0)] == when
        assert ("backend", "acm-full", 0) not in index.statement_last_used

    def test_empty_stream(self):
        org = build_org(report_scenario())
        index = build_usage_index(org, [])
        assert index.statement_last_used == {} and index.observations == {}

    def test_last_used_is_max_of_timestamps(self):
        org = build_org(report_scenario())
        t1, t2 = utc(2024, 5, 1), utc(2024, 5, 9)
        index = build_usage_index(org, [
            api_event(t1, "dev", "ec2:StartInstances", "arn:aws:ec2:::i-1"),
            api_event(t2, "dev", "ec2:StopInstances", "arn:aws:ec2:::i-1"),
        ])
        assert index.statement_last_used[("backend", "ec2-ops", 0)] == t2

    def test_out_of_order_stream_rejected(self):
        org = build_org(report_scenario())
        with pytest.raises(UsageError, match="out of order"):
            build_usage_index(org, [
                api_event(utc(2024, 5, 2), "dev", "ec2:StartInstances", "arn:x"),
                api_event(utc(2024, 5, 1), "dev", "ec2:StopInstances", "arn:x"),
            ])

    def test_unresolvable_principal_rejected(self):
        org = build_org(report_scenario())
        with pytest.raises(UsageError, match="ghost"):
            build_usage_index(org, [
                api_event(utc(2024, 5, 1), "ghost", "ec2:StartInstances", "arn:x"),
            ])

    def test_unknown_account_names_the_event(self):
        org = build_org(report_scenario())
        events = [
            api_event(utc(2024, 5, 1), "dev", "ec2:StartInstances", "arn:x"),
            api_event(utc(2024, 5, 2), "dev", "ec2:StartInstances", "arn:x",
                      account="999999999999"),
        ]
        with pytest.raises(UsageError) as excinfo:
            build_usage_index(org, events)
        assert str(excinfo.value) == "event 1: unknown account: 999999999999"

    def test_denied_events_not_observed(self):
        org = build_org(report_scenario())
        index = build_usage_index(org, [
            api_event(utc(2024, 5, 1), "dev", "s3:GetObject", "arn:aws:s3:::b",
                      verdict=Verdict.DENY),
        ])
        assert index.observations == {} and index.statement_last_used == {}

    def test_every_matching_allow_statement_credited(self):
        scenario = report_scenario()
        scenario["permission_sets"][0]["policies"].append({
            "name": "ec2-extra", "document": {
                "Version": "2012-10-17",
                "Statement": [{"Effect": "Allow", "Action": "ec2:Start*", "Resource": "*"}],
            },
        })
        org = build_org(scenario)
        when = utc(2024, 5, 1)
        index = build_usage_index(org, [
            api_event(when, "dev", "ec2:StartInstances", "arn:aws:ec2:::i-1"),
        ])
        assert index.statement_last_used[("backend", "ec2-ops", 0)] == when
        assert index.statement_last_used[("backend", "ec2-extra", 0)] == when


class TestUnusedReport:
    AS_OF = utc(2024, 6, 1)

    def build(self):
        org = build_org(report_scenario())
        events = [api_event(utc(2024, 2, 2), "dev", "acm:RequestCertificate",
                            "arn:aws:acm-cert")]
        week = utc(2024, 3, 7)
        while week <= utc(2024, 5, 30):
            events.append(api_event(week, "dev", "ec2:DescribeInstances",
                                    "arn:aws:ec2-i-1"))
            week += timedelta(days=7)
        return org, build_usage_index(org, events)

    def test_stale_acm_statement_is_the_only_entry(self):
        org, index = self.build()
        entries = unused_report(index, org, self.AS_OF, threshold_days=90)
        assert [(e.permission_set, e.policy, e.statement_index) for e in entries] == [
            ("backend", "acm-full", 0),
        ]
        assert entries[0].last_used == utc(2024, 2, 2)

    def test_never_used_listed_first(self):
        org, index = self.build()
        entries = unused_report(index, org, self.AS_OF, threshold_days=10_000)
        # with an impossible threshold everything stale-or-never shows, none here
        assert entries == []
        fresh_org = build_org(report_scenario())
        empty = build_usage_index(fresh_org, [])
        entries = unused_report(empty, fresh_org, self.AS_OF, threshold_days=90)
        assert [e.last_used for e in entries] == [None, None]
        assert [e.policy for e in entries] == ["acm-full", "ec2-ops"]

    def test_statement_used_yesterday_not_listed(self):
        org = build_org(report_scenario())
        index = build_usage_index(org, [
            api_event(utc(2024, 5, 31), "dev", "ec2:DescribeInstances", "arn:x"),
        ])
        entries = unused_report(index, org, self.AS_OF, threshold_days=90)
        assert ("backend", "ec2-ops", 0) not in [
            (e.permission_set, e.policy, e.statement_index) for e in entries
        ]

    def test_report_is_pure_and_stable(self):
        org, index = self.build()
        first = render_unused_report(unused_report(index, org, self.AS_OF, 90))
        second = render_unused_report(unused_report(index, org, self.AS_OF, 90))
        assert first == second
        assert unused_report_obj(unused_report(index, org, self.AS_OF, 90))[0]["last_used"] \
            == "2024-02-02T00:00:00Z"

    def test_negative_threshold_rejected(self):
        org, index = self.build()
        with pytest.raises(UsageError):
            unused_report(index, org, self.AS_OF, -1)


class TestGeneration:
    def test_exact_level_grouping(self):
        index = generation_index()
        generated = generate_least_privilege(index, ("dev", ACCT), 4, GEN_WINDOW)
        stmts = generated.document.statements
        assert [(s.actions[0].text, [r.pattern for r in s.resources]) for s in stmts] == [
            ("s3:GetObject", [BKT_X]),
            ("s3:PutObject", [BKT_X]),
        ]
        assert generated.verified and generated.fallback_actions == ()

    def test_service_level_collapses_to_one_statement(self):
        index = generation_index()
        generated = generate_least_privilege(index, ("dev", ACCT), 2, GEN_WINDOW)
        stmts = generated.document.statements
        assert [(s.actions[0].text, [r.pattern for r in s.resources]) for s in stmts] == [
            ("s3:*", ["*"]),
        ]

    def test_singleton_observation(self):
        org = build_org(generation_scenario())
        index = build_usage_index(org, [
            api_event(utc(2024, 1, 1), "dev", "s3:GetObject", BKT_X),
        ])
        generated = generate_least_privilege(index, ("dev", ACCT), 4, GEN_WINDOW)
        assert len(generated.document.statements) == 1
        stmt = generated.document.statements[0]
        assert len(stmt.actions) == 1 and len(stmt.resources) == 1

    def test_verb_level_groups_by_verb(self):
        org = build_org(generation_scenario())
        index = build_usage_index(org, [
            api_event(utc(2024, 1, 1, 0, 0), "dev", "s3:GetObject", BKT_X),
            api_event(utc(2024, 1, 1, 0, 1), "dev", "s3:GetBucketAcl", BKT_Y),
            api_event(utc(2024, 1, 1, 0, 2), "dev", "s3:PutObject", BKT_X),
        ])
        generated = generate_least_privilege(index, ("dev", ACCT), 3, GEN_WINDOW)
        assert [s.actions[0].text for s in generated.document.statements] == \
            ["s3:Get*", "s3:Put*"]
        assert all(r.pattern == "*" for s in generated.document.statements
                   for r in s.resources)

    def test_unlisted_verb_falls_back_to_exact(self):
        org = build_org(generation_scenario())
        index = build_usage_index(org, [
            api_event(utc(2024, 1, 1), "dev", "s3:TagResource", BKT_X),
        ])
        generated = generate_least_privilege(index, ("dev", ACCT), 3, GEN_WINDOW)
        assert generated.fallback_actions == ("s3:TagResource",)
        assert generated.document.statements[0].actions[0].text == "s3:TagResource"

    def test_statement_levels_match_request(self):
        index = generation_index()
        for level in (2, 3, 4):
            generated = generate_least_privilege(index, ("dev", ACCT), level, GEN_WINDOW)
            for stmt in generated.document.statements:
                got = classify_action_level(stmt.actions[0])
                if stmt.actions[0].text in generated.fallback_actions:
                    assert got is ActionLevel.EXACT
                else:
                    assert got == ActionLevel(level)

    def test_no_observations_in_window_rejected(self):
        index = generation_index()
        with pytest.raises(UsageError, match="no observations"):
            generate_least_privilege(index, ("dev", ACCT), 4,
                                     (utc(2023, 1, 1), utc(2023, 1, 2)))

    def test_level_one_rejected(self):
        index = generation_index()
        with pytest.raises(UsageError):
            generate_least_privilege(index, ("dev", ACCT), 1, GEN_WINDOW)


class TestReplay:
    def test_exact_level_tight(self):
        index = generation_index()
        generated = generate_least_privilege(index, ("dev", ACCT), 4, GEN_WINDOW)
        v = generated.verification
        assert v.coverage == 1.0 and v.excess == 0.0
        assert v.observed == 2 and v.sampled > 0

    def test_service_level_reports_excess(self):
        index = generation_index()
        generated = generate_least_privilege(index, ("dev", ACCT), 2, GEN_WINDOW)
        v = generated.verification
        assert v.coverage == 1.0
        assert v.excess > 0.0
        assert generated.verified  # coverage alone gates non-exact levels

    def test_exact_level_authorizes_observed_pairs_only(self):
        index = generation_index()
        generated = generate_least_privilege(index, ("dev", ACCT), 4, GEN_WINDOW)
        replay_org = install_sole_permission_set(index.org, "dev", ACCT, generated.document)
        actions = sorted(index.actions_seen()) + ["s3:ListBucket"]
        resources = [BKT_X, BKT_Y, "arn:aws:s3:::bkt-z"]
        observed = index.observed_in_window(("dev", ACCT), GEN_WINDOW)
        for action in actions:
            for resource in resources:
                allowed = authorize(replay_org, AccessRequest(
                    user="dev", account=ACCT, action=action, resource=resource,
                )).verdict is Verdict.ALLOW
                assert allowed == ((action, resource) in observed)

    def test_relaxation_is_monotone_across_levels(self):
        index = generation_index()
        probe_actions = sorted(index.actions_seen()) + ["s3:ListBucket", "s3:GetBucketAcl"]
        probe_resources = [BKT_X, BKT_Y, "arn:aws:s3:::bkt-z"]
        authorized = {}
        for level in (2, 3, 4):
            generated = generate_least_privilege(index, ("dev", ACCT), level, GEN_WINDOW)
            replay_org = install_sole_permission_set(index.org, "dev", ACCT, generated.document)
            authorized[level] = {
                (a, r)
                for a in probe_actions for r in probe_resources
                if authorize(replay_org, AccessRequest(
                    user="dev", account=ACCT, action=a, resource=r,
                )).verdict is Verdict.ALLOW
            }
        assert authorized[4] <= authorized[3] <= authorized[2]

    def test_coverage_across_cross_account_grants(self, demo_org):
        """Observed cross-account activity must replay under the generated policy."""
        events = [
            api_event(utc(2024, 1, 1, 0, 0), "dana", "s3:GetObject",
                      "arn:aws:s3:::shared-assets", account="200000000001"),
            api_event(utc(2024, 1, 1, 0, 1), "dana", "s3:PutObject",
                      "arn:aws:s3:::red-app-assets", account="200000000001"),
        ]
        index = build_usage_index(demo_org, events)
        for level in (2, 3, 4):
            generated = generate_least_privilege(index, ("dana", "200000000001"),
                                                 level, GEN_WINDOW)
            assert generated.verification.coverage == 1.0

    def test_sole_permission_set_drops_group_grants_for_every_member(self):
        """The what-if org fits only the principal's own requests: ana's
        group assignment is dropped, so bob, in the same group, loses it in
        that account too, and keeps the grant it holds in another account."""
        other = "777700000002"
        scenario = generation_scenario()
        scenario["organization"]["root"]["accounts"].append({"id": other, "name": "other"})
        scenario["groups"] = [{"id": "team"}]
        scenario["users"] = [{"id": "ana", "groups": ["team"]}, {"id": "bob", "groups": ["team"]}]
        scenario["assignments"] = [
            {"group": "team", "account": ACCT, "permission_set": "s3-rw"},
            {"group": "team", "account": other, "permission_set": "s3-rw"},
        ]
        org = build_org(scenario)
        document = generate_least_privilege(build_usage_index(org, [
            api_event(utc(2024, 1, 1, 0, 0), "ana", "s3:GetObject", BKT_X),
        ]), ("ana", ACCT), 4, GEN_WINDOW).document
        what_if = install_sole_permission_set(org, "ana", ACCT, document)
        assert resolve_permission_set_ids(what_if, "ana", ACCT) == ("generated-replay",)
        assert resolve_permission_set_ids(org, "bob", ACCT) == ("s3-rw",)
        assert resolve_permission_set_ids(what_if, "bob", ACCT) == ()
        assert resolve_permission_set_ids(what_if, "bob", other) == ("s3-rw",)


def per_pair_verify(org, principal, observed_pairs, sample) -> VerificationResult:
    """The reference for class replay: one ``authorize`` call per pair."""
    user, account = principal

    def allowed(action, resource):
        return authorize(org, AccessRequest(
            user=user, account=account, action=action, resource=resource,
        )).verdict is Verdict.ALLOW

    covered = sum(allowed(a, r) for a, r in sorted(observed_pairs))
    excess_allowed = sum(allowed(a, r) for a, r in sample)
    observed, sampled = len(observed_pairs), len(sample)
    return VerificationResult(
        coverage=covered / observed if observed else 1.0,
        excess=excess_allowed / sampled if sampled else 0.0,
        observed=observed, covered=covered, sampled=sampled, excess_allowed=excess_allowed,
    )


def outcome(verify, *args):
    """What ``verify(*args)`` returns, or the type and text of what it raises."""
    try:
        return verify(*args)
    except (RequestError, LookupError) as exc:
        return type(exc), str(exc)


def activity_org(rng: random.Random):
    """A random org: Deny statements, conditions on both sides, resource
    policies naming users and accounts, and shares.

    Besides the generators' three buckets it registers eight objects whose
    policies draw effects, actions and resource patterns from small pools,
    so that arns alike in all but one fact are common."""
    scenario = random_scenario(rng, condition_rate=0.3)
    accounts = [a["id"] for ou in (scenario["organization"]["root"],
                                   *scenario["organization"]["root"]["children"])
                for a in ou["accounts"]]
    principals = [u["id"] for u in scenario["users"]] + accounts
    for i in range(8):
        arn, owner = f"arn:aws:s3:::bkt-0/k{i}", rng.choice(accounts)
        entry = {"arn": arn, "owner_account": owner}
        if rng.random() < 0.8:
            entry["resource_policy"] = {"Version": "2012-10-17", "Statement": [{
                "Effect": rng.choice(["Allow", "Allow", "Deny"]),
                "Principal": rng.sample(principals, k=rng.randint(1, 3)),
                "Action": rng.choice(["s3:*", "s3:Get*", "s3:GetObject", "s3:PutObject"]),
                "Resource": rng.choice(RESOURCE_PATTERNS + [arn]),
            } for _ in range(rng.randint(1, 3))]}
        scenario["resources"].append(entry)
        if rng.random() < 0.4:
            scenario["shares"].append({"resource": arn, "shared_with": sorted(
                rng.sample([a for a in accounts if a != owner], k=1))})
    for resource in scenario["resources"]:
        for stmt in resource.get("resource_policy", {}).get("Statement", []):
            if rng.random() < 0.3:
                stmt["Condition"] = rng.choice(CONDITIONS)
    return build_org(scenario)


def activity_index(rng: random.Random):
    """An :func:`activity_org` and the usage index of its allowed
    context-free requests, unregistered resources included."""
    org = activity_org(rng)
    events = []
    for i in range(80):
        request = dataclasses.replace(random_request(rng, org), context={})
        if authorize(org, request).verdict is Verdict.ALLOW:
            events.append(api_event(utc(2024, 1, 1) + timedelta(seconds=i), request.user,
                                    request.action, request.resource, account=request.account))
    return build_usage_index(org, events)


def reference_last_used(org, events):
    """The index credit restated on full decisions: each call logged Allow
    credits the identity Allow traces of ``authorize(...).trace`` that
    matched; a call ``authorize`` refuses gives the ``UsageError`` text."""
    last_used = {}
    for i, event in enumerate(events):
        if event.kind is not EventKind.API_CALL or event.verdict is not Verdict.ALLOW:
            continue
        try:
            decision = authorize(org, AccessRequest(user=event.user, account=event.account,
                                                    action=event.action, resource=event.resource))
        except RequestError as exc:
            return UsageError, f"event {i}: {exc}"
        for t in decision.trace:
            if t.side == "identity" and t.effect is Effect.ALLOW and t.matched:
                last_used[(t.origin, t.policy, t.statement_index)] = event.time
    return last_used


def index_credit(org, events):
    """``build_usage_index``'s statement credit, or the ``UsageError`` text."""
    try:
        return build_usage_index(org, events).statement_last_used
    except UsageError as exc:
        return UsageError, str(exc)


def logged_activity(rng: random.Random, org, n: int = 120) -> list:
    """Random context-free calls, most logged Allow whatever ``authorize``
    gives them, and a few logins."""
    events = []
    for i in range(n):
        when = utc(2024, 1, 1) + timedelta(seconds=i)
        request = random_request(rng, org)
        if rng.random() < 0.05:
            events.append(AuditEvent(time=when, kind=EventKind.LOGIN, user=request.user,
                                     account=request.account, verdict=Verdict.ALLOW))
            continue
        verdict = Verdict.DENY if rng.random() < 0.2 else Verdict.ALLOW
        events.append(api_event(when, request.user, request.action, request.resource,
                                verdict=verdict, account=request.account))
    return events


class TestIndexCredit:
    """The usage index credits a statement from the identity trace alone; it
    must credit what a full decision's matched identity Allow traces do,
    also where the log says Allow and the org now says Deny."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_the_reference_fold(self, seed):
        rng = random.Random(seed)
        org = activity_org(rng)
        events = logged_activity(rng, org)
        assert index_credit(org, events) == reference_last_used(org, events)

    def test_credits_allowed_calls_the_org_denies(self):
        """The logs hold calls logged Allow that the org denies although an
        identity Allow matched: by a resource-side Deny, or across accounts
        with no resource-side grant. Both are credited like any other."""
        denied = Counter()
        for seed in range(30):
            rng = random.Random(seed)
            org = activity_org(rng)
            events = logged_activity(rng, org)
            assert index_credit(org, events) == reference_last_used(org, events)
            for e in events:
                if e.kind is not EventKind.API_CALL or e.verdict is not Verdict.ALLOW:
                    continue
                decision = authorize(org, AccessRequest(user=e.user, account=e.account,
                                                        action=e.action, resource=e.resource))
                matched = {(t.side, t.effect) for t in decision.trace if t.matched}
                if decision.verdict is Verdict.ALLOW or ("identity", Effect.ALLOW) not in matched:
                    continue
                resource = org.resources_by_arn.get(e.resource)
                if ("resource", Effect.DENY) in matched and ("identity", Effect.DENY) not in matched:
                    denied["resource-side Deny"] += 1
                elif (resource is not None and resource.owner_account != e.account
                      and matched == {("identity", Effect.ALLOW)}):
                    denied["cross-account, no grant"] += 1
        assert denied["resource-side Deny"] > 0 and denied["cross-account, no grant"] > 0

    @pytest.mark.parametrize("field, value", [
        ("user", "ghost"), ("account", "999999999999"),
        ("action", "s3:Get*"), ("resource", "arn:aws:s3:::bkt-*"),
    ])
    def test_bad_call_raises_the_reference_error(self, field, value):
        for seed in range(10):
            rng = random.Random(seed)
            org = activity_org(rng)
            events = logged_activity(rng, org)
            at = rng.choice([i for i, e in enumerate(events) if e.kind is EventKind.API_CALL])
            # the event checks refuse a non-concrete action or arn, so the bad
            # event is built as an unchecked tuple
            fields = events[at]._asdict() | {field: value, "verdict": Verdict.ALLOW}
            events[at] = tuple.__new__(AuditEvent, tuple(fields.values()))
            expected = reference_last_used(org, events)
            assert expected[0] is UsageError and expected[1].startswith(f"event {at}: ")
            assert index_credit(org, events) == expected


class TestClassReplay:
    """Replay decides one sampled pair per action and resource class; every
    result must equal one ``authorize`` call per pair."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), level=st.sampled_from([2, 3, 4]))
    def test_matches_per_pair_replay(self, seed, level):
        rng = random.Random(seed)
        index = activity_index(rng)
        assume(index.observations)
        principal = min(index.observations, key=lambda p: (-len(index.observations[p]), p))
        window = (utc(2024, 1, 1), utc(2024, 1, 2))
        observed = index.observed_in_window(principal, window)
        generated = generate_least_privilege(index, principal, level, window)
        replay_org = install_sole_permission_set(index.org, *principal, generated.document)
        sample = complement_sample(index, observed)
        assert generated.verification == per_pair_verify(replay_org, principal, observed, sample)
        # a wider sample, in any order, over unregistered arns as well, and
        # against the original grants too, whose identity side has Deny
        # statements and conditions
        arns = sorted({r.arn for r in index.org.resources} | set(REQUEST_RESOURCES))
        wide = [(a, r) for a in CONCRETE_ACTIONS for r in arns]
        rng.shuffle(wide)
        for org in (replay_org, index.org):
            assert outcome(replay_verify, org, principal, observed, wide) == \
                outcome(per_pair_verify, org, principal, observed, wide)

    @pytest.mark.parametrize("bad_arn", ["arn:aws:s3:::bkt-y*", ""])
    def test_registered_non_concrete_arn_still_fails_its_pair(self, bad_arn):
        scenario = generation_scenario()
        scenario["resources"].append({"arn": bad_arn, "owner_account": ACCT})
        index = build_usage_index(build_org(scenario), [
            api_event(utc(2024, 1, 1, 0, 0), "dev", "s3:GetObject", BKT_X),
        ])
        observed = index.observed_in_window(("dev", ACCT), GEN_WINDOW)
        # the bad arn comes after an arn of the class it would otherwise join:
        # same owner, no policy, and dev's s3:* grant on * matches both
        sample = [("s3:GetObject", BKT_Y), ("s3:GetObject", bad_arn)]
        message = f"request resource must be a concrete arn: {bad_arn!r}"
        for verify in (replay_verify, per_pair_verify):
            assert outcome(verify, index.org, ("dev", ACCT), observed, sample) == \
                (RequestError, message)
        with pytest.raises(RequestError, match=f"^{re.escape(message)}$"):
            generate_least_privilege(index, ("dev", ACCT), 2, GEN_WINDOW)

    @pytest.mark.parametrize("principal", [("ghost", ACCT), ("dev", "999999999999")])
    def test_unknown_principal_fails_as_per_pair(self, principal):
        org = build_org(generation_scenario())
        sample = [("s3:GetObject", BKT_X), ("s3:GetObject", BKT_Y)]
        first = outcome(replay_verify, org, principal, set(), sample)
        assert first[0] is RequestError
        assert first == outcome(per_pair_verify, org, principal, set(), sample)

    def test_one_authorize_call_per_action_and_class(self, monkeypatch):
        scenario = generation_scenario()
        # each bucket's policy differs from the others only in statements
        # that cannot apply to dev's requests: one names another principal,
        # one needs a context key, one covers other resources
        scenario["resources"] = [{
            "arn": f"arn:aws:s3:::bkt-{i:02d}", "owner_account": ACCT,
            "resource_policy": {"Version": "2012-10-17", "Statement": [
                {"Effect": "Deny", "Principal": "ops", "Action": f"s3:Get{i}x",
                 "Resource": "*"},
                {"Effect": "Deny", "Principal": "dev", "Action": f"s3:Put{i}x",
                 "Resource": "*", "Condition": {"StringEquals": {"env": ["prod"]}}},
                {"Effect": "Deny", "Principal": ACCT, "Action": f"s3:List{i}x",
                 "Resource": "arn:aws:s3:::other"},
            ]},
        } for i in range(40)]
        index = build_usage_index(build_org(scenario), [
            api_event(utc(2024, 1, 1, 0, 0), "dev", "s3:GetObject", "arn:aws:s3:::bkt-00"),
            api_event(utc(2024, 1, 1, 0, 1), "ops", "s3:ListBucket", "arn:aws:s3:::bkt-01"),
            api_event(utc(2024, 1, 1, 0, 2), "dev", "s3:PutObject", "arn:aws:s3:::bkt-02"),
            api_event(utc(2024, 1, 1, 0, 3), "dev", "s3:GetObject", "arn:aws:s3:::bkt-03"),
            api_event(utc(2024, 1, 1, 0, 4), "dev", "s3:GetObject", "arn:aws:s3:::bkt-04"),
        ])
        calls = []

        def counting(org, request):
            calls.append((org, request))
            return authorize(org, request)

        monkeypatch.setattr(usage, "authorize", counting)
        generated = generate_least_privilege(index, ("dev", ACCT), 2, GEN_WINDOW)
        v = generated.verification
        assert (v.observed, v.sampled) == (4, 3 * 40 - 4)
        # the 40 buckets form one class, so one call per action settles the
        # observed pairs and the sample alike
        assert len(calls) == 3
        observed = index.observed_in_window(("dev", ACCT), GEN_WINDOW)
        assert v == per_pair_verify(calls[0][0], ("dev", ACCT), observed,
                                    complement_sample(index, observed))


def list_sample(index, observed, seed):
    """The complement sample drawn from the universe built as a list."""
    actions = sorted(index.actions_seen())
    resources = sorted(r.arn for r in index.org.resources)
    universe = [(a, r) for a in actions for r in resources if (a, r) not in observed]
    if len(universe) <= usage.DEFAULT_SAMPLE_CAP:
        return universe
    return random.Random(seed).sample(universe, usage.DEFAULT_SAMPLE_CAP)


class TestComplementSample:
    """The universe is built from the product at C level; the sample must be
    the one drawn from the list the comprehension builds."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_the_list_sample(self, seed, data):
        rng = random.Random(seed)
        index = activity_index(rng)
        pairs = [(a, r.arn) for a in index.actions_seen() for r in index.org.resources]
        observed = data.draw(st.sampled_from(["none", "some", "all"]))
        observed = {"none": set(), "all": set(pairs),
                    "some": set(rng.sample(pairs, k=rng.randint(0, len(pairs))))}[observed]
        # observed pairs outside the universe change nothing
        observed |= {("s3:GetObject", "arn:aws:s3:::unregistered"),
                     ("zz:Never", "arn:aws:s3:::bkt-0/k0")}
        # caps below and above the universe's size take each of the sampler's paths
        cap = data.draw(st.integers(0, len(pairs) + 1))
        sample_seed = data.draw(st.integers(0, 2**16))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(usage, "DEFAULT_SAMPLE_CAP", cap)
            assert complement_sample(index, observed, sample_seed) == \
                list_sample(index, observed, sample_seed)


def test_usage_imports_no_decision_rule():
    """Replay's class key reads the engine's facts; usage.py must not import
    what it would need to state the owner, share or condition rules again."""
    tree = ast.parse(Path(usage.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert imported & {"resolve_permission_set_ids", "shares_covering", "condition_holds"} == set()


def test_one_grant_rule_and_one_action_check():
    """Only org.py states which assignments reach a principal (oracle.py, the
    reference, keeps its own): usage.py and engine.py read no subject kind
    and no user's groups. ``policy.split_action`` is the one cached
    concrete-action check, and audit.py only calls it."""
    package = Path(engine.__file__).parent
    for name in ("usage.py", "engine.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        assert [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr in ("subject_kind", "groups")] == [], name
    tree = ast.parse((package / "audit.py").read_text(encoding="utf-8"))
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name)
            and node.id == "split_action" and id(node) not in called] == []
    assert policy.split_action.cache_info().maxsize == 4096


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sole_permission_set_drops_exactly_the_principals_grants(seed):
    """Against a reference written here: an assignment reaches (user,
    account) when it is in that account and names the user or one of the
    user's groups. Users hold up to three of four groups, so groups are
    shared and a user reaches an account through several of them."""
    rng = random.Random(seed)
    org = build_org(random_scenario(rng, n_accounts=3, n_users=6, n_groups=4,
                                    max_groups_per_user=3))
    user, account = rng.choice(org.users), rng.choice(org.accounts).id
    document = parse_policy('{"Version":"2012-10-17","Statement":'
                            '[{"Effect":"Allow","Action":"s3:GetObject","Resource":"*"}]}')

    def reaches(a):
        return a.account == account and (
            (a.subject_kind == "user" and a.subject == user.id)
            or (a.subject_kind == "group" and a.subject in user.groups))

    what_if = install_sole_permission_set(org, user.id, account, document)
    assert what_if.assignments == tuple(a for a in org.assignments if not reaches(a)) + (
        Assignment("user", user.id, account, "generated-replay"),)
    assert what_if.permission_sets == org.permission_sets + (
        PermissionSet("generated-replay", (document,)),)


class _Calls(ast.NodeVisitor):
    """Each call of one of ``names``, as a plain name or an attribute, with
    the innermost function holding it."""

    def __init__(self, names):
        self.names, self.where, self.found = names, [None], []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Call(self, node):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in self.names:
            self.found.append((self.where[-1], name))
        self.generic_visit(node)


def test_one_walk_of_the_identity_statements():
    """``engine._identity`` alone walks the identity statements that reach a
    principal; the usage index reads the identity trace, not a decision, and
    replay still decides through the ``authorize`` bound in ``usage``."""
    walks = {}
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        if path.name == "oracle.py":  # the independent reference walks on its own
            continue
        calls = _Calls({"resolve_permission_set_ids", "permission_set"})
        calls.visit(ast.parse(path.read_text(encoding="utf-8")))
        if calls.found:
            walks[path.name] = calls.found
    assert walks == {"engine.py": [("_identity", "resolve_permission_set_ids"),
                                   ("_identity", "permission_set")]}
    tree = ast.parse(Path(usage.__file__).read_text(encoding="utf-8"))
    index_fn = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "build_usage_index")
    assert any(isinstance(node, ast.Name) and node.id == "authorize" and isinstance(node.ctx, ast.Load)
               for node in ast.walk(tree))
    assert not any(isinstance(node, ast.Name) and node.id == "authorize" for node in ast.walk(index_fn))
