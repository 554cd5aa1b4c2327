"""Organization building, validation, tree queries and policy resolution."""

import dataclasses
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iamsim import (
    ScenarioError,
    accounts_in_subtree,
    build_org,
    export_scenario,
    provision_account,
    resolve_identity_policies,
    resource_lookup,
    shares_covering,
    validate_org,
)
from iamsim.org import Assignment, ResourceShare, resolve_permission_set_ids
from iamsim.policy import parse_policy
from iamsim.usage import install_sole_permission_set

from generators import REQUEST_RESOURCES, random_org, random_scenario


def minimal_scenario():
    return {
        "organization": {
            "management_account": "000000000042",
            "root": {"name": "Root", "accounts": [{"id": "000000000042", "name": "mgmt"}]},
        },
    }


class TestBuild:
    def test_demo_org_shape(self, demo_org):
        assert len(demo_org.root.children) == 5
        assert {ou.name for ou in demo_org.root.children} == {
            "Team Red", "Team Blue", "Internal", "Shared", "Security",
        }
        assert len(demo_org.accounts) >= 10
        assert demo_org.management_account in demo_org.accounts_by_id

    def test_minimal_org(self):
        org = build_org(minimal_scenario())
        assert org.users == () and org.assignments == ()
        assert [a.id for a in org.accounts] == ["000000000042"]

    def test_assignment_with_unknown_permission_set(self):
        scenario = minimal_scenario()
        scenario["users"] = [{"id": "u1"}]
        scenario["assignments"] = [
            {"user": "u1", "account": "000000000042", "permission_set": "ghost"}
        ]
        with pytest.raises(ScenarioError) as err:
            build_org(scenario)
        message = str(err.value)
        assert "ghost" in message and "u1" in message and "000000000042" in message

    def test_all_violations_reported(self):
        scenario = minimal_scenario()
        scenario["users"] = [{"id": "u1", "groups": ["nope"]}]
        scenario["shares"] = [{"resource": "arn:aws:s3:::ghost", "shared_with": ["000000000042"]}]
        with pytest.raises(ScenarioError) as err:
            build_org(scenario)
        assert len(err.value.violations) == 2

    def test_account_in_two_ous(self):
        scenario = minimal_scenario()
        scenario["organization"]["root"]["children"] = [
            {"name": "A", "accounts": [{"id": "000000000042", "name": "dup"}]},
        ]
        with pytest.raises(ScenarioError, match="appears in both"):
            build_org(scenario)

    def test_unknown_top_level_key(self):
        scenario = minimal_scenario()
        scenario["extras"] = []
        with pytest.raises(ScenarioError, match="extras"):
            build_org(scenario)

    def test_identity_policy_with_principal_rejected(self):
        scenario = minimal_scenario()
        scenario["permission_sets"] = [{
            "id": "bad",
            "policies": [{
                "name": "p",
                "document": {
                    "Version": "2012-10-17",
                    "Statement": [{
                        "Effect": "Allow", "Principal": "u1",
                        "Action": "s3:*", "Resource": "*",
                    }],
                },
            }],
        }]
        with pytest.raises(ScenarioError, match="Principal"):
            build_org(scenario)

    def test_resource_policy_without_principal_rejected(self):
        scenario = minimal_scenario()
        scenario["resources"] = [{
            "arn": "arn:aws:s3:::b",
            "owner_account": "000000000042",
            "resource_policy": {
                "Version": "2012-10-17",
                "Statement": [{"Effect": "Allow", "Action": "s3:*", "Resource": "*"}],
            },
        }]
        with pytest.raises(ScenarioError, match="principal"):
            build_org(scenario)

    def test_arn_account_segment_must_match_owner(self):
        scenario = minimal_scenario()
        scenario["resources"] = [{
            "arn": "arn:aws:dynamodb:us-east-1:999999999999:table/T",
            "owner_account": "000000000042",
        }]
        with pytest.raises(ScenarioError, match="segment"):
            build_org(scenario)

    def test_share_listing_owner_rejected(self, demo_org):
        scenario = export_scenario(demo_org)
        scenario["shares"].append({
            "resource": "arn:aws:s3:::shared-assets",
            "shared_with": ["500000000001"],
        })
        with pytest.raises(ScenarioError, match="owner"):
            build_org(scenario)

    @pytest.mark.parametrize("section, field, value, expected", [
        ("users", "groups", "abc", "a list"),
        ("shares", "shared_with", "abc", "a list"),
        ("users", "groups", ["red-frontend", 5], "a list of strings"),
        ("shares", "shared_with", [None], "a list of strings"),
    ])
    def test_string_list_fields_are_typed(self, demo_scenario_path, section, field, value,
                                          expected):
        scenario = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        scenario[section][0][field] = value
        with pytest.raises(ScenarioError) as err:
            build_org(scenario)
        assert err.value.violations == [f"{section}[0].{field}: expected {expected}"]

    def test_string_accounts_rejected(self):
        scenario = minimal_scenario()
        scenario["organization"]["root"]["accounts"] = "000000000042"
        with pytest.raises(ScenarioError, match=r"organization\.root\.accounts: expected a list"):
            build_org(scenario)


class TestProvision:
    def test_adds_account_under_ou(self, demo_org):
        grown = provision_account(demo_org, "blue-b-staging", "Team Blue")
        assert len(grown.accounts) == len(demo_org.accounts) + 1
        added = [a for a in grown.accounts if a.name == "blue-b-staging"]
        assert len(added) == 1
        assert added[0].id in {a.id for a in grown.find_ou("Team Blue").accounts}

    def test_original_org_unchanged(self, demo_org):
        before = [a.id for a in demo_org.accounts]
        provision_account(demo_org, "scratch", "Internal")
        assert [a.id for a in demo_org.accounts] == before

    def test_unknown_ou(self, demo_org):
        with pytest.raises(LookupError, match="Green"):
            provision_account(demo_org, "x", "Green")

    def test_duplicate_name(self, demo_org):
        with pytest.raises(ScenarioError, match="red-dev"):
            provision_account(demo_org, "red-dev", "Team Red")

    def test_hundred_accounts_roundtrip(self, demo_org):
        org = demo_org
        paths = ["Team Red", "Team Blue", "Internal", "Shared", "Security", ""]
        for i in range(100):
            org = provision_account(org, f"extra-{i:03d}", paths[i % len(paths)])
        assert len(org.accounts) == len(demo_org.accounts) + 100
        assert validate_org(org) == []
        rebuilt = build_org(export_scenario(org))
        assert rebuilt == org

    def test_fresh_ids_are_deterministic(self, demo_org):
        a = provision_account(demo_org, "one", "")
        b = provision_account(demo_org, "one", "")
        assert a == b


class TestSubtree:
    def test_root_lists_all_accounts(self, demo_org):
        assert accounts_in_subtree(demo_org, "") == [a.id for a in demo_org.accounts]

    def test_team_red_environments(self, demo_org):
        assert accounts_in_subtree(demo_org, "Team Red") == [
            "200000000001", "200000000002", "200000000003",
        ]

    def test_empty_ou(self, demo_org):
        grown = dataclasses.replace(
            demo_org,
            root=dataclasses.replace(
                demo_org.root,
                children=demo_org.root.children + (type(demo_org.root)(name="Empty"),),
            ),
        )
        assert accounts_in_subtree(grown, "Empty") == []

    def test_unknown_path(self, demo_org):
        with pytest.raises(LookupError):
            accounts_in_subtree(demo_org, "Team Red/SubTeam")


class TestResolve:
    def test_red_frontend_gets_frontend_policies(self, demo_org):
        policies = resolve_identity_policies(demo_org, "dana", "200000000001")
        assert [p.name for p in policies] == ["frontend-access"]

    def test_no_assignments_yield_empty(self, demo_org):
        assert resolve_identity_policies(demo_org, "li", "200000000001") == []

    def test_unknown_user_raises(self, demo_org):
        with pytest.raises(LookupError):
            resolve_identity_policies(demo_org, "ghost", "200000000001")

    def test_two_groups_same_set_deduplicated(self):
        scenario = minimal_scenario()
        scenario["groups"] = [{"id": "g1"}, {"id": "g2"}]
        scenario["users"] = [{"id": "u1", "groups": ["g1", "g2"]}]
        scenario["permission_sets"] = [{
            "id": "shared",
            "policies": [{
                "name": "p",
                "document": {"Version": "2012-10-17", "Statement": []},
            }],
        }]
        scenario["assignments"] = [
            {"group": "g1", "account": "000000000042", "permission_set": "shared"},
            {"group": "g2", "account": "000000000042", "permission_set": "shared"},
        ]
        org = build_org(scenario)
        resolved = resolve_identity_policies(org, "u1", "000000000042")
        # naive multiset union would see the set twice
        naive = [
            a.permission_set for a in org.assignments
            if a.subject_kind == "group" and a.subject in org.user("u1").groups
        ]
        assert len(naive) == 2
        assert [p.name for p in resolved] == ["p"]

    def test_group_and_direct_assignment_equivalence(self):
        rng = random.Random(11)
        scenario = random_scenario(rng, n_users=3, n_groups=1)
        scenario["groups"] = [{"id": "g0"}]
        for u in scenario["users"]:
            u["groups"] = ["g0"]
        ps = scenario["permission_sets"][0]["id"]
        account = "100000000001"
        via_group = dict(scenario)
        via_group["assignments"] = [{"group": "g0", "account": account, "permission_set": ps}]
        via_users = dict(scenario)
        via_users["assignments"] = [
            {"user": u["id"], "account": account, "permission_set": ps}
            for u in scenario["users"]
        ]
        org_g, org_u = build_org(via_group), build_org(via_users)
        for u in scenario["users"]:
            assert resolve_identity_policies(org_g, u["id"], account) == \
                resolve_identity_policies(org_u, u["id"], account)

    def test_adding_assignment_never_shrinks_resolution(self):
        rng = random.Random(23)
        for _ in range(25):
            org = build_org(random_scenario(rng))
            user = rng.choice(org.users)
            account = rng.choice(org.accounts).id
            before = resolve_identity_policies(org, user.id, account)
            extra = Assignment("user", user.id, account,
                               rng.choice(org.permission_sets).id)
            if extra in org.assignments:
                continue
            grown = dataclasses.replace(
                org, assignments=tuple(sorted(
                    org.assignments + (extra,),
                    key=lambda a: (a.subject, a.account, a.permission_set, a.subject_kind),
                )),
            )
            after = resolve_identity_policies(grown, user.id, account)
            names_before = [p.name for p in before]
            names_after = [p.name for p in after]
            assert all(n in names_after for n in names_before)

    def test_ou_partition_no_duplicates(self):
        rng = random.Random(5)
        for _ in range(20):
            org = build_org(random_scenario(rng))
            ids = accounts_in_subtree(org, "")
            assert len(ids) == len(set(ids))


class TestIndexedLookups:
    """Resolution and share lookups read per-org indices; a naive scan of
    the org's tuples is the reference."""

    @staticmethod
    def naive_permission_set_ids(org, user_id, account_id):
        member_of = set(org.user(user_id).groups)
        return tuple(sorted({
            a.permission_set for a in org.assignments
            if a.account == account_id and (
                (a.subject_kind == "user" and a.subject == user_id)
                or (a.subject_kind == "group" and a.subject in member_of))
        }))

    @staticmethod
    def naive_shares_covering(org, arn, account_id):
        return any(s.resource == arn and account_id in s.shared_with for s in org.shares)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_indices_agree_with_naive_scan(self, seed):
        org = random_org(random.Random(seed), n_accounts=4, n_users=5, n_groups=3)
        for account in org.accounts:
            for user in org.users:
                assert resolve_permission_set_ids(org, user.id, account.id) == \
                    self.naive_permission_set_ids(org, user.id, account.id)
            for arn in REQUEST_RESOURCES:
                assert shares_covering(org, arn, account.id) == \
                    self.naive_shares_covering(org, arn, account.id)

    def test_sole_permission_set_org_gets_its_own_index(self):
        document = parse_policy(
            '{"Version":"2012-10-17","Statement":'
            '[{"Effect":"Allow","Action":"s3:GetObject","Resource":"*"}]}'
        )
        rng = random.Random(7)
        for _ in range(20):
            org = random_org(rng)
            user, account = rng.choice(org.users).id, rng.choice(org.accounts).id
            before = resolve_permission_set_ids(org, user, account)  # builds org's index
            replay = install_sole_permission_set(org, user, account, document)
            assert resolve_permission_set_ids(replay, user, account) == ("generated-replay",)
            assert resolve_permission_set_ids(org, user, account) == before
            for other in replay.users:
                assert resolve_permission_set_ids(replay, other.id, account) == \
                    self.naive_permission_set_ids(replay, other.id, account)

    def test_provisioned_account_gets_its_own_index(self, demo_org):
        zone = "arn:aws:route53:::hostedzone/ZRED42"
        assert shares_covering(demo_org, zone, "200000000001")  # builds demo_org's indices
        grown = provision_account(demo_org, "red-scratch", "Team Red")
        fresh = next(a.id for a in grown.accounts if a.name == "red-scratch")
        assert resolve_permission_set_ids(grown, "dana", fresh) == ()
        extra = Assignment("user", "dana", fresh, "frontend")
        granted = dataclasses.replace(grown, assignments=grown.assignments + (extra,))
        assert resolve_permission_set_ids(granted, "dana", fresh) == ("frontend",)
        assert resolve_permission_set_ids(grown, "dana", fresh) == ()
        shared = dataclasses.replace(
            granted, shares=granted.shares + (ResourceShare(zone, (fresh,)),))
        assert shares_covering(shared, zone, fresh)
        assert not shares_covering(granted, zone, fresh)


class TestResourcesAndShares:
    def test_lookup_returns_resource(self, demo_org):
        res = resource_lookup(demo_org, "arn:aws:s3:::shared-assets")
        assert res.owner_account == "500000000001"

    def test_lookup_unknown_arn(self, demo_org):
        with pytest.raises(LookupError):
            resource_lookup(demo_org, "arn:aws:s3:::nope")

    def test_shared_zone_covers_dev_and_staging(self, demo_org):
        zone = "arn:aws:route53:::hostedzone/ZRED42"
        assert shares_covering(demo_org, zone, "200000000001")
        assert shares_covering(demo_org, zone, "200000000002")

    def test_owner_not_covered_by_share(self, demo_org):
        assert not shares_covering(demo_org, "arn:aws:route53:::hostedzone/ZRED42",
                                   "200000000003")

    def test_unshared_resource_foreign_account(self, demo_org):
        assert not shares_covering(demo_org, "arn:aws:s3:::shared-assets", "300000000001")


def test_export_rebuild_identity_on_random_orgs():
    rng = random.Random(99)
    for _ in range(25):
        org = build_org(random_scenario(rng))
        assert build_org(export_scenario(org)) == org
