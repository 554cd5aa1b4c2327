"""Authorization decisions: rules, traces, batches and the differential oracle."""

import dataclasses
import json
import random

import pytest

from iamsim import (
    AccessRequest,
    Effect,
    Reason,
    RequestError,
    Statement,
    Verdict,
    authorize,
    build_org,
    explain,
    oracle_authorize,
    simulate,
)
from iamsim.engine import decision_to_obj
from iamsim.org import Assignment, PermissionSet, resolve_permission_set_ids
from iamsim.policy import ActionPattern, PolicyDocument, ResourcePattern

from generators import exhaustive_universes, random_org, random_request


def _with_extra_statement(org, stmt, rng):
    """Insert a statement into a random permission-set policy (or a random
    resource policy when the statement carries principals)."""
    if stmt.principals is not None:
        candidates = [r for r in org.resources if r.resource_policy is not None]
        if not candidates:
            return None
        res = rng.choice(candidates)
        policy = res.resource_policy
        new_policy = dataclasses.replace(policy, statements=policy.statements + (stmt,))
        new_res = dataclasses.replace(res, resource_policy=new_policy)
        resources = tuple(new_res if r.arn == res.arn else r for r in org.resources)
        return dataclasses.replace(org, resources=resources)
    candidates = [ps for ps in org.permission_sets if ps.policies]
    if not candidates:
        return None
    ps = rng.choice(candidates)
    policy = rng.choice(ps.policies)
    new_policy = dataclasses.replace(policy, statements=policy.statements + (stmt,))
    new_ps = PermissionSet(
        id=ps.id,
        policies=tuple(new_policy if p.name == policy.name else p for p in ps.policies),
    )
    sets = tuple(new_ps if p.id == ps.id else p for p in org.permission_sets)
    return dataclasses.replace(org, permission_sets=sets)


# One user granted reads (and denied deletes) in account 111111111111, one
# user with no grant, and buckets covering each of the four decision rules.
RULES_SCENARIO = {
    "organization": {
        "management_account": "111111111111",
        "root": {"name": "Root", "accounts": [
            {"id": "111111111111", "name": "a"}, {"id": "222222222222", "name": "b"},
        ]},
    },
    "users": [{"id": "u1"}, {"id": "u2"}],
    "permission_sets": [{
        "id": "reader",
        "policies": [{"name": "read-no-delete", "document": {
            "Version": "2012-10-17",
            "Statement": [
                {"Effect": "Allow", "Action": "s3:Get*", "Resource": "*"},
                {"Effect": "Deny", "Action": "s3:Delete*", "Resource": "*"},
            ],
        }}],
    }],
    "assignments": [{"user": "u1", "account": "111111111111", "permission_set": "reader"}],
    "resources": [
        {"arn": "arn:aws:s3:::own", "owner_account": "111111111111"},
        {"arn": "arn:aws:s3:::granted", "owner_account": "222222222222",
         "resource_policy": {"Version": "2012-10-17", "Statement": [{
             "Effect": "Allow", "Principal": ["u1", "u2"],
             "Action": "s3:GetObject", "Resource": "arn:aws:s3:::granted",
         }]}},
        {"arn": "arn:aws:s3:::shared", "owner_account": "222222222222"},
        {"arn": "arn:aws:s3:::closed", "owner_account": "222222222222"},
    ],
    "shares": [{"resource": "arn:aws:s3:::shared", "shared_with": ["111111111111"]}],
}


class TestDecisionRules:
    def test_same_account_identity_allow(self, sharing_org, sharing_requests):
        decision = authorize(sharing_org, sharing_requests[0])
        assert decision.verdict is Verdict.ALLOW
        assert decision.reason is Reason.SAME_ACCOUNT_ALLOW

    def test_cross_account_identity_only_is_denied(self, sharing_org, sharing_requests):
        decision = authorize(sharing_org, sharing_requests[1])
        assert decision.verdict is Verdict.DENY
        assert decision.reason is Reason.IMPLICIT_DENY

    def test_cross_account_with_resource_allow(self, sharing_org, sharing_requests):
        decision = authorize(sharing_org, sharing_requests[2])
        assert decision.verdict is Verdict.ALLOW
        assert decision.reason is Reason.CROSS_ACCOUNT_ALLOW

    def test_no_assignments_implicit_deny(self, demo_org):
        decision = authorize(demo_org, AccessRequest(
            user="li", account="200000000001",
            action="s3:GetObject", resource="arn:aws:s3:::whatever",
        ))
        assert decision.verdict is Verdict.DENY
        assert decision.reason is Reason.IMPLICIT_DENY

    def test_explicit_deny_beats_allow(self):
        scenario = {
            "organization": {
                "management_account": "111111111111",
                "root": {"name": "Root", "accounts": [{"id": "111111111111", "name": "a"}]},
            },
            "users": [{"id": "u1"}],
            "permission_sets": [{
                "id": "p0",
                "policies": [{
                    "name": "mixed",
                    "document": {
                        "Version": "2012-10-17",
                        "Statement": [
                            {"Effect": "Allow", "Action": "s3:*", "Resource": "*"},
                            {"Effect": "Deny", "Action": "s3:DeleteObject", "Resource": "*"},
                        ],
                    },
                }],
            }],
            "assignments": [
                {"user": "u1", "account": "111111111111", "permission_set": "p0"}
            ],
        }
        org = build_org(scenario)
        request = AccessRequest(user="u1", account="111111111111",
                                action="s3:DeleteObject", resource="arn:aws:s3:::b")
        decision = authorize(org, request)
        assert decision.verdict is Verdict.DENY
        assert decision.reason is Reason.EXPLICIT_DENY
        assert oracle_authorize(org, request) == "Deny"
        # sibling action still allowed
        assert authorize(org, dataclasses.replace(request, action="s3:PutObject")).verdict \
            is Verdict.ALLOW

    def test_cross_account_share_satisfies_resource_side(self, demo_org):
        decision = authorize(demo_org, AccessRequest(
            user="ava", account="200000000001",
            action="route53:GetHostedZone",
            resource="arn:aws:route53:::hostedzone/ZRED42",
        ))
        assert decision.reason is Reason.CROSS_ACCOUNT_ALLOW

    def test_unknown_user_rejected(self, sharing_org):
        with pytest.raises(RequestError, match="ghost"):
            authorize(sharing_org, AccessRequest(
                user="ghost", account="111111111111",
                action="s3:GetObject", resource="arn:aws:s3:::bucket-s",
            ))

    def test_wildcard_request_rejected(self, sharing_org):
        with pytest.raises(RequestError):
            authorize(sharing_org, AccessRequest(
                user="user-1", account="111111111111",
                action="s3:*", resource="arn:aws:s3:::bucket-s",
            ))
        with pytest.raises(RequestError):
            authorize(sharing_org, AccessRequest(
                user="user-1", account="111111111111",
                action="s3:GetObject", resource="arn:aws:s3:::*",
            ))

    @pytest.mark.parametrize("field, value, message", [
        ("action", ["s3:GetObject"], "request field 'action' must be a string, not list"),
        ("user", 5, "request field 'user' must be a string, not int"),
        ("account", None, "request field 'account' must be a string, not NoneType"),
        ("resource", b"arn:aws:s3:::bucket-s",
         "request field 'resource' must be a string, not bytes"),
        ("context", {"a": 1}, "request field 'context' must map strings to strings"),
        ("context", {1: "a"}, "request field 'context' must map strings to strings"),
        ("context", [("a", "b")], "request field 'context' must map strings to strings"),
    ])
    def test_request_fields_are_typed(self, field, value, message):
        fields = {"user": "user-1", "account": "111111111111",
                  "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s"}
        fields[field] = value
        with pytest.raises(RequestError) as excinfo:
            AccessRequest(**fields)
        assert str(excinfo.value) == message


class TestTraces:
    def test_every_statement_in_scope_appears_once(self, sharing_org, sharing_requests):
        for request, identity_count, resource_count in zip(
            sharing_requests, (1, 1, 1), (1, 1, 1)
        ):
            trace = authorize(sharing_org, request).trace
            assert sum(1 for t in trace if t.side == "identity") == identity_count
            assert sum(1 for t in trace if t.side == "resource") == resource_count
            keys = [(t.side, t.origin, t.policy, t.statement_index) for t in trace]
            assert len(keys) == len(set(keys))

    def test_trace_complete_on_random_orgs(self):
        """The trace holds exactly the statements in scope, each once."""
        rng = random.Random(31)
        for _ in range(40):
            org = random_org(rng)
            request = random_request(rng, org)
            expected = sum(
                len(p.statements)
                for ps_id in resolve_permission_set_ids(org, request.user, request.account)
                for p in org.permission_sets_by_id[ps_id].policies
            )
            resource = org.resources_by_arn.get(request.resource)
            if resource is not None and resource.resource_policy is not None:
                expected += len(resource.resource_policy.statements)
            trace = authorize(org, request).trace
            assert len(trace) == expected
            keys = [(t.side, t.origin, t.policy, t.statement_index) for t in trace]
            assert len(keys) == len(set(keys))

    def test_trace_booleans_reflect_matchers(self, sharing_org, sharing_requests):
        trace = authorize(sharing_org, sharing_requests[1]).trace
        resource_entries = [t for t in trace if t.side == "resource"]
        assert len(resource_entries) == 1
        entry = resource_entries[0]
        assert entry.action_match and entry.resource_match and entry.condition_match
        assert entry.principal_match is False and not entry.matched

    def test_explain_cross_account_denial_names_resource_side(self, sharing_org, sharing_requests):
        rendered = explain(sharing_org, sharing_requests[1])
        assert "Deny (ImplicitDeny)" in rendered
        assert "cross-account" in rendered and "resource side" in rendered
        assert "matched" in rendered

    def test_explain_pinpoints_deny_statement(self):
        scenario = {
            "organization": {
                "management_account": "111111111111",
                "root": {"name": "Root", "accounts": [{"id": "111111111111", "name": "a"}]},
            },
            "users": [{"id": "u1"}],
            "permission_sets": [{
                "id": "p0",
                "policies": [{
                    "name": "mixed",
                    "document": {
                        "Version": "2012-10-17",
                        "Statement": [
                            {"Effect": "Allow", "Action": "s3:*", "Resource": "*"},
                            {"Effect": "Deny", "Action": "s3:Delete*", "Resource": "*"},
                        ],
                    },
                }],
            }],
            "assignments": [{"user": "u1", "account": "111111111111", "permission_set": "p0"}],
        }
        org = build_org(scenario)
        rendered = explain(org, AccessRequest(
            user="u1", account="111111111111",
            action="s3:DeleteObject", resource="arn:aws:s3:::b",
        ))
        assert "explicit Deny" in rendered
        assert "statement=1 effect=Deny" in rendered and "-> matched" in rendered

    def test_explain_no_policies(self, demo_org):
        rendered = explain(demo_org, AccessRequest(
            user="li", account="600000000001",
            action="s3:GetObject", resource="arn:aws:s3:::x",
        ))
        assert "ImplicitDeny" in rendered and "no statements in scope" in rendered

    def test_rendering_is_deterministic(self, sharing_org, sharing_requests):
        first = [explain(sharing_org, r) for r in sharing_requests]
        second = [explain(sharing_org, r) for r in sharing_requests]
        assert first == second

    @pytest.mark.parametrize("user, action, resource, decision, rule", [
        ("u1", "s3:DeleteObject", "arn:aws:s3:::own", "Deny (ExplicitDeny)",
         "an explicit Deny statement matched the request"),
        ("u1", "s3:GetObject", "arn:aws:s3:::own", "Allow (SameAccountAllow)",
         "same-account request: a matching Allow statement grants access"),
        ("u1", "s3:GetObject", "arn:aws:s3:::granted", "Allow (CrossAccountAllow)",
         "cross-account request: identity Allow and resource-side grant both present"),
        ("u1", "s3:GetObject", "arn:aws:s3:::shared", "Allow (CrossAccountAllow)",
         "cross-account request: identity Allow and resource-side grant both present"),
        ("u1", "s3:PutObject", "arn:aws:s3:::own", "Deny (ImplicitDeny)",
         "same-account request: no matching Allow statement; denied by default"),
        ("u1", "s3:GetObject", "arn:aws:s3:::closed", "Deny (ImplicitDeny)",
         "cross-account request: identity Allow matched but the resource side grants "
         "nothing (no matching resource Allow, no share); denied by default"),
        ("u2", "s3:GetObject", "arn:aws:s3:::granted", "Deny (ImplicitDeny)",
         "cross-account request: no matching identity Allow; denied by default"),
    ])
    def test_rule_line_text(self, user, action, resource, decision, rule):
        org = build_org(RULES_SCENARIO)
        lines = explain(org, AccessRequest(
            user=user, account="111111111111", action=action, resource=resource,
        )).splitlines()
        assert lines[:3] == [f"decision: {decision}", f"rule: {rule}", "trace:"]


class TestSimulate:
    def test_figure_batch(self, sharing_org, sharing_requests):
        decisions = simulate(sharing_org, sharing_requests)
        assert [d.verdict.value for d in decisions] == ["Allow", "Deny", "Allow"]

    def test_empty_batch(self, sharing_org):
        assert simulate(sharing_org, []) == []

    def test_matches_individual_authorize(self, sharing_org, sharing_requests):
        assert simulate(sharing_org, sharing_requests) == [
            authorize(sharing_org, r) for r in sharing_requests
        ]

    def test_compositionality(self, sharing_org, sharing_requests):
        whole = simulate(sharing_org, sharing_requests)
        parts = simulate(sharing_org, sharing_requests[:1]) + \
            simulate(sharing_org, sharing_requests[1:])
        assert [d.verdict for d in whole] == [d.verdict for d in parts]

    def test_emits_one_event_per_request(self, sharing_org, sharing_requests):
        events = []
        simulate(sharing_org, sharing_requests, sink=events.append)
        assert len(events) == 3
        assert [e.verdict.value for e in events] == ["Allow", "Deny", "Allow"]
        assert [e.user for e in events] == ["user-1", "user-2", "user-3"]
        assert events[0].time < events[1].time < events[2].time

    def test_fails_fast_with_index_and_no_events(self, sharing_org, sharing_requests):
        bad = sharing_requests + [dataclasses.replace(sharing_requests[0], user="ghost")]
        events = []
        with pytest.raises(RequestError, match="request 3"):
            simulate(sharing_org, bad, sink=events.append)
        assert events == []


class TestDifferential:
    def test_exhaustive_small_universes(self):
        comparisons = 0
        for org, requests in exhaustive_universes():
            for request in requests:
                assert authorize(org, request).verdict.value == oracle_authorize(org, request)
                comparisons += 1
        assert comparisons >= 2000

    def test_randomized_universes(self):
        rng = random.Random(4242)
        for _ in range(40):
            org = random_org(rng)
            for _ in range(60):
                request = random_request(rng, org)
                assert authorize(org, request).verdict.value == oracle_authorize(org, request)


class TestMonotonicity:
    def test_deny_dominance(self):
        """A matching Deny in scope forces Deny no matter how many Allows exist."""
        rng = random.Random(77)
        for _ in range(300):
            org = random_org(rng)
            request = random_request(rng, org)
            matching_deny = Statement(
                effect=Effect.DENY,
                actions=(ActionPattern.parse(request.action),),
                resources=(ResourcePattern(request.resource),),
            )
            poisoned = dataclasses.replace(
                org,
                permission_sets=org.permission_sets + (PermissionSet(
                    id="zz-forced-deny",
                    policies=(PolicyDocument(statements=(matching_deny,), name="forced"),),
                ),),
                assignments=org.assignments + (Assignment(
                    "user", request.user, request.account, "zz-forced-deny",
                ),),
            )
            decision = authorize(poisoned, request)
            assert decision.verdict is Verdict.DENY
            assert decision.reason is Reason.EXPLICIT_DENY

    def test_adding_allow_never_flips_allow_to_deny(self):
        rng = random.Random(88)
        flips = 0
        for _ in range(350):
            org = random_org(rng)
            requests = [random_request(rng, org) for _ in range(8)]
            before = [authorize(org, r).verdict for r in requests]
            stmt = Statement(
                effect=Effect.ALLOW,
                actions=(ActionPattern.parse(rng.choice(["s3:*", "*", "ec2:*"])),),
                resources=(ResourcePattern("*"),),
                principals=("111111111111",) if rng.random() < 0.3 else None,
            )
            grown = _with_extra_statement(org, stmt, rng)
            if grown is None:
                continue
            after = [authorize(grown, r).verdict for r in requests]
            for b, a in zip(before, after):
                if b is Verdict.ALLOW and a is Verdict.DENY:
                    flips += 1
        assert flips == 0

    def test_adding_deny_never_flips_deny_to_allow(self):
        rng = random.Random(99)
        flips = 0
        for _ in range(350):
            org = random_org(rng)
            requests = [random_request(rng, org) for _ in range(8)]
            before = [authorize(org, r).verdict for r in requests]
            stmt = Statement(
                effect=Effect.DENY,
                actions=(ActionPattern.parse(rng.choice(["s3:Delete*", "s3:*", "*"])),),
                resources=(ResourcePattern(rng.choice(["*", "arn:aws:s3:::bkt-0*"])),),
                principals=("user00", "111111111111") if rng.random() < 0.3 else None,
            )
            shrunk = _with_extra_statement(org, stmt, rng)
            if shrunk is None:
                continue
            after = [authorize(shrunk, r).verdict for r in requests]
            for b, a in zip(before, after):
                if b is Verdict.DENY and a is Verdict.ALLOW:
                    flips += 1
        assert flips == 0


def test_decision_json_shape(sharing_org, sharing_requests):
    decision = authorize(sharing_org, sharing_requests[2])
    obj = decision_to_obj(decision, include_trace=True)
    assert obj["verdict"] == "Allow" and obj["reason"] == "CrossAccountAllow"
    assert all({"side", "origin", "policy", "statement", "effect"} <= set(t) for t in obj["trace"])
    json.dumps(obj)  # representable
