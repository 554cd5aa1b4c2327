"""Usage indexing, unused-statement reporting and policy generation."""

from datetime import timedelta

import pytest

from iamsim import (
    AccessRequest,
    ActionLevel,
    AuditEvent,
    EventKind,
    UsageError,
    Verdict,
    authorize,
    build_org,
    build_usage_index,
    classify_action_level,
    generate_least_privilege,
    unused_report,
)
from iamsim.usage import install_sole_permission_set, render_unused_report, unused_report_obj

from conftest import utc

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
            replay_org = install_sole_permission_set(
                index.org, "dev", ACCT, generated.document, ps_id=f"replay-{level}",
            )
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
