"""Organization building, validation, tree queries and policy resolution."""

import copy
import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iamsim import (
    ScenarioError,
    accounts_in_subtree,
    build_org,
    export_scenario,
    provision_account,
    shares_covering,
    validate_org,
)
import iamsim.org as org_module
from iamsim.org import (
    Account,
    Assignment,
    Organization,
    PermissionSet,
    Resource,
    ResourceShare,
    SsoGroup,
    SsoUser,
    resolve_permission_set_ids,
)
from iamsim.policy import parse_policy
from iamsim.usage import install_sole_permission_set

from generators import REQUEST_RESOURCES, random_org, random_scenario

# one record of each kind in the demo scenario, and the prefix its
# structural errors are reported under
RECORDS = [
    ((), "scenario"),
    (("organization",), "scenario.organization"),
    (("organization", "root"), "organization.root"),
    (("organization", "root", "children", 0), "organization.root.children[0]"),
    (("organization", "root", "accounts", 0), "organization.root.accounts[0]"),
    (("users", 0), "users[0]"),
    (("groups", 0), "groups[0]"),
    (("permission_sets", 0), "permission_sets[0]"),
    (("permission_sets", 0, "policies", 0), "permission_sets[0].policies[0]"),
    (("assignments", 0), "assignments[0]"),
    (("resources", 0), "resources[0]"),
    (("shares", 0), "shares[0]"),
]

# the required fields of each record kind, by the last part of its prefix
REQUIRED = {
    "scenario": {"organization"},
    "organization": {"management_account", "root"},
    "root": {"name"},
    "children": {"name"},
    "accounts": {"id"},
    "users": {"id"},
    "groups": {"id"},
    "permission_sets": {"id"},
    "policies": {"name", "document"},
    "assignments": {"account", "permission_set"},
    "resources": {"arn", "owner_account"},
    "shares": {"resource", "shared_with"},
}


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


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

    def test_assignment_violations_in_order(self):
        org = build_org(minimal_scenario())
        org = dataclasses.replace(
            org,
            users=(SsoUser("u1"),),
            groups=(SsoGroup("g1"),),
            permission_sets=(PermissionSet("p1"),),
            assignments=(
                Assignment("user", "u1", "000000000042", "p1"),
                Assignment("user", "u1", "000000000042", "p1"),
                Assignment("user", "u9", "000000000042", "p1"),
                Assignment("group", "g9", "000000000099", "p9"),
                Assignment("group", "g1", "000000000042", "p1"),
                Assignment("role", "u1", "000000000042", "p1"),
            ),
        )
        assert validate_org(org) == [
            "duplicate assignment (user u1, account 000000000042, permission set p1)",
            "assignment (user u9, account 000000000042, permission set p1): unknown user u9",
            "assignment (group g9, account 000000000099, permission set p9): unknown group g9",
            "assignment (group g9, account 000000000099, permission set p9): "
            "unknown account 000000000099",
            "assignment (group g9, account 000000000099, permission set p9): "
            "unknown permission set p9",
            "assignment (role u1, account 000000000042, permission set p1): "
            "unknown subject kind",
        ]

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

    @pytest.mark.parametrize("path, where, field", [
        ((), "scenario", "users"),
        ((), "scenario", "groups"),
        ((), "scenario", "permission_sets"),
        ((), "scenario", "assignments"),
        ((), "scenario", "resources"),
        ((), "scenario", "shares"),
        (("organization", "root"), "organization.root", "accounts"),
        (("organization", "root"), "organization.root", "children"),
        (("permission_sets", 0), "permission_sets[0]", "policies"),
    ])
    @pytest.mark.parametrize("value", ["abc", {}, None])
    def test_list_fields_are_typed(self, demo_scenario_path, path, where, field, value):
        scenario = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        _at(scenario, path)[field] = value
        with pytest.raises(ScenarioError) as err:
            build_org(scenario)
        assert err.value.violations == [f"{where}.{field}: expected a list"]

    @pytest.mark.parametrize("path, where", RECORDS)
    @pytest.mark.parametrize("value", [5, None, []])
    def test_records_must_be_objects(self, demo_scenario_path, path, where, value):
        scenario = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        if path:
            _at(scenario, path[:-1])[path[-1]] = value
        else:
            scenario = value
        with pytest.raises(ScenarioError) as err:
            build_org(scenario)
        assert err.value.violations == [f"{where}: expected an object"]

    @pytest.mark.parametrize("path, where", RECORDS)
    def test_unknown_fields_are_listed_sorted(self, demo_scenario_path, path, where):
        scenario = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        record = _at(scenario, path)
        record["zz"] = record["aa"] = "x"
        with pytest.raises(ScenarioError) as err:
            build_org(scenario)
        assert err.value.violations == [f"{where}: unknown field(s) aa, zz"]

    @pytest.mark.parametrize("path, where", RECORDS)
    def test_missing_fields_are_listed_sorted(self, demo_scenario_path, path, where):
        scenario = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        record = _at(scenario, path)
        required = sorted(REQUIRED[where.split(".")[-1].split("[")[0]])
        for key in required:
            del record[key]
        with pytest.raises(ScenarioError) as err:
            build_org(scenario)
        assert err.value.violations == [f"{where}: missing field(s) {', '.join(required)}"]

    @pytest.mark.parametrize("subject", [
        {},
        {"user": "ava", "group": "red-frontend"},
    ])
    def test_assignment_needs_exactly_one_subject(self, demo_scenario_path, subject):
        scenario = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        assignment = scenario["assignments"][0]
        del assignment["group"]
        assignment.update(subject)
        with pytest.raises(ScenarioError) as err:
            build_org(scenario)
        assert err.value.violations == [
            "assignments[0]: exactly one of 'user' or 'group' is required"]

    @pytest.mark.parametrize("path, field, where", [
        (("permission_sets", 0, "policies", 0), "document", "permission_sets[0].policies[0]"),
        (("resources", 0), "resource_policy", "resources[0]"),
    ])
    @pytest.mark.parametrize("value", [5, "x", [], ["x"]])
    def test_policy_document_must_be_an_object(self, demo_scenario_path, path, field, where,
                                               value):
        scenario = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        _at(scenario, path)[field] = value
        with pytest.raises(ScenarioError) as err:
            build_org(scenario)
        assert err.value.violations == [f"{where}: policy document must be an object"]

    @pytest.mark.parametrize("path, where", [
        (("permission_sets", 0, "policies", 0, "document"), "permission_sets[0].policies[0]"),
        (("resources", 0, "resource_policy"), "resources[0]"),
    ])
    def test_embedded_policy_errors_are_prefixed(self, demo_scenario_path, path, where):
        scenario = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        del _at(scenario, path)["Statement"][0]["Effect"]
        with pytest.raises(ScenarioError) as err:
            build_org(scenario)
        assert err.value.violations == [f"{where}: statement 0: missing Effect"]

    def test_string_accounts_rejected(self):
        scenario = minimal_scenario()
        scenario["organization"]["root"]["accounts"] = "000000000042"
        with pytest.raises(ScenarioError, match=r"organization\.root\.accounts: expected a list"):
            build_org(scenario)

    def test_account_string_shorthand(self):
        scenario = minimal_scenario()
        scenario["organization"]["root"]["accounts"] = ["000000000042"]
        assert build_org(scenario).accounts == (Account("000000000042", "000000000042"),)

    @pytest.mark.parametrize("fields, name", [
        ({}, "000000000042"),
        ({"name": ""}, ""),
        ({"name": "mgmt"}, "mgmt"),
    ])
    def test_account_name_defaults_to_id_only_when_absent(self, fields, name):
        scenario = minimal_scenario()
        scenario["organization"]["root"]["accounts"] = [{"id": "000000000042", **fields}]
        assert build_org(scenario).accounts == (Account("000000000042", name),)

    def test_optional_fields_take_their_defaults(self):
        scenario = minimal_scenario()
        scenario["groups"] = [{"id": "g"}]
        scenario["users"] = [{"id": "u"}]
        scenario["permission_sets"] = [{"id": "p"}]
        scenario["resources"] = [{"arn": "arn:aws:s3:::b", "owner_account": "000000000042",
                                  "resource_policy": None}]
        org = build_org(scenario)
        assert org.groups == (SsoGroup("g", ""),)
        assert org.users == (SsoUser("u", "", ()),)
        assert org.permission_sets == (PermissionSet("p", ()),)
        assert org.resources == (Resource("arn:aws:s3:::b", "000000000042", None),)
        assert org.root.children == ()

    @pytest.mark.parametrize("path, where, field", [
        (("users", 0), "users[0]", "id"),
        (("users", 0), "users[0]", "display_name"),
        (("groups", 0), "groups[0]", "id"),
        (("permission_sets", 0), "permission_sets[0]", "id"),
        (("permission_sets", 0, "policies", 0), "permission_sets[0].policies[0]", "name"),
        (("assignments", 0), "assignments[0]", "group"),
        (("assignments", 0), "assignments[0]", "account"),
        (("assignments", 0), "assignments[0]", "permission_set"),
        (("resources", 0), "resources[0]", "arn"),
        (("resources", 0), "resources[0]", "owner_account"),
        (("shares", 0), "shares[0]", "resource"),
        (("organization",), "scenario.organization", "management_account"),
        (("organization", "root"), "organization.root", "name"),
        (("organization", "root", "accounts", 0), "organization.root.accounts[0]", "id"),
        (("organization", "root", "accounts", 0), "organization.root.accounts[0]", "name"),
    ])
    @pytest.mark.parametrize("value", [5, ["x"], None])
    def test_scalar_fields_are_typed(self, demo_scenario_path, path, where, field, value):
        scenario = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        obj = _at(scenario, path)
        assert isinstance(obj[field], str)
        obj[field] = value
        with pytest.raises(ScenarioError) as err:
            build_org(scenario)
        assert err.value.violations == [f"{where}.{field}: expected a string"]


class _Str(str):
    pass


class _Dict(dict):
    pass


def _record_paths(scenario):
    """The path of every record in a scenario, the scenario itself included."""
    paths = [(), ("organization",)]
    stack = [("organization", "root")]
    while stack:
        path = stack.pop()
        paths.append(path)
        ou = _at(scenario, path)
        paths += [(*path, "accounts", i) for i, a in enumerate(ou.get("accounts", []))
                  if isinstance(a, dict)]
        stack += [(*path, "children", i) for i in range(len(ou.get("children", [])))]
    for section in ("users", "groups", "permission_sets", "assignments", "resources", "shares"):
        paths += [(section, i) for i in range(len(scenario.get(section, [])))]
    paths += [("permission_sets", i, "policies", j)
              for i, p in enumerate(scenario.get("permission_sets", []))
              for j in range(len(p.get("policies", [])))]
    return paths


def _mutate(scenario, path, rng):
    """The scenario with the record at ``path`` changed in one way; records
    are changed in place. An earlier change may have removed the record."""
    try:
        record = _at(scenario, path)
    except (KeyError, IndexError, TypeError):
        return scenario
    if not isinstance(record, dict):
        return scenario
    field = rng.choice(sorted(record)) if record else "extra"
    how = rng.choice(["str subclass", "dict subclass", "tuple", "extra key", "missing key",
                      "scalar", "item", "subject"])
    if how == "dict subclass":
        if not path:
            return _Dict(record)
        _at(scenario, path[:-1])[path[-1]] = _Dict(record)
    elif how == "str subclass" and isinstance(record.get(field), str):
        record[field] = _Str(record[field])
    elif how == "tuple" and isinstance(record.get(field), list):
        record[field] = tuple(record[field])
    elif how == "extra key":
        record[rng.choice(["extra", "id", "name", "user", "group", "resource_policy"])] = "x"
    elif how == "missing key":
        record.pop(field, None)
    elif how == "scalar":
        record[field] = rng.choice([True, False, 0, 7, None, 1.5])
    elif how == "item" and isinstance(record.get(field), list) and record[field]:
        items = record[field]
        i = rng.randrange(len(items))
        items[i] = rng.choice([_Str(items[i]) if isinstance(items[i], str) else "x", 5, None])
    elif how == "subject" and {"account", "permission_set"} <= record.keys():
        for subject in ("user", "group"):
            if rng.random() < 0.5:
                record.pop(subject, None)
            else:
                record[subject] = rng.choice(["user00", "group0", _Str("user01")])
    return scenario


def _one_record_per_key_set(scenario):
    """The path of the first record at each place of the scenario (such as
    ``assignments[i]``) for each key set found there."""
    paths = {}
    for path in _record_paths(scenario):
        place = tuple(p if isinstance(p, str) else 0 for p in path)
        paths.setdefault((place, frozenset(_at(scenario, path))), path)
    return list(paths.values())


class TestFastPath:
    """build_org reads a well-formed record as it is; every scenario must give
    the org or the violations that _record's full check of every record gives."""

    @staticmethod
    def outcome(scenario, fast=True):
        with pytest.MonkeyPatch.context() as patch:
            if not fast:  # no key set is taken, so every record goes to _record
                patch.setattr(org_module, "_SHAPES", {kind: () for kind in org_module._SHAPES})
            try:
                return build_org(copy.deepcopy(scenario))
            except ScenarioError as exc:
                return exc.violations

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mutations=st.integers(0, 3),
           exported=st.booleans())
    def test_fast_and_full_checks_agree(self, seed, mutations, exported):
        rng = random.Random(seed)
        scenario = random_scenario(rng, n_groups=rng.randint(0, 2))
        if exported:  # records holding every field, as export_scenario writes them
            scenario = export_scenario(build_org(scenario))
        paths = _record_paths(scenario)
        for path in rng.sample(paths, k=min(mutations, len(paths))):
            scenario = _mutate(scenario, path, rng)
        fast = self.outcome(scenario)
        assert fast == self.outcome(scenario, fast=False)
        if isinstance(fast, Organization):
            assert fast.assignments == tuple(sorted(
                fast.assignments,
                key=lambda a: (a.subject, a.account, a.permission_set, a.subject_kind)))

    @pytest.mark.parametrize("exported", [False, True])
    def test_every_field_change_agrees(self, demo_scenario_path, exported):
        demo = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        if exported:
            demo = export_scenario(build_org(demo))
        for path in _one_record_per_key_set(demo):
            for field in [*_at(demo, path), "extra"]:
                value = _at(demo, path).get(field)
                changes = [True, 0, None, 1.5, "x", [], ["x", 5], {}, _Str("x")]
                if isinstance(value, str):
                    changes.append(_Str(value))
                if isinstance(value, list):
                    changes += [tuple(value), [_Str(v) if isinstance(v, str) else v
                                               for v in value]]
                for change in [*changes, "drop"]:
                    scenario = copy.deepcopy(demo)
                    record = _at(scenario, path)
                    if change == "drop":
                        record.pop(field, None)
                    else:
                        record[field] = change
                    fast = self.outcome(scenario)
                    assert fast == self.outcome(scenario, fast=False), (path, field, change)

    def test_field_changes_reach_every_key_set(self, demo_scenario_path):
        # build_org states its per-kind checks inline for speed; changing every
        # field of a record of each key set the fast path reads, as the test
        # above does, is what ties those checks to the types in _SPECS
        demo = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        changed = {frozenset(_at(scenario, path))
                   for scenario in (demo, export_scenario(build_org(demo)))
                   for path in _one_record_per_key_set(scenario)}
        for kind, key_sets in org_module._SHAPES.items():
            assert set(key_sets) <= changed, kind

    def test_exported_records_take_the_fast_path(self, monkeypatch):
        scenario = export_scenario(build_org(random_scenario(random.Random(7))))
        checked = []
        real = org_module._record

        def counting(obj, kind, where):
            checked.append(kind)
            return real(obj, kind, where)

        monkeypatch.setattr(org_module, "_record", counting)
        build_org(scenario)
        # only the scenario, the organization and the OUs, whose empty
        # lists an export leaves out, take the full check
        assert set(checked) <= {"scenario", "organization", "OU"}


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

    def test_non_ascii_digit_ids_are_not_numbered(self):
        # "¹" and "٣" pass str.isdigit but int() refuses the first and reads
        # the second as 3; neither is a 12-digit id that could collide
        scenario = minimal_scenario()
        scenario["organization"]["root"]["accounts"] += [
            {"id": "¹", "name": "superscript"}, {"id": "٣", "name": "arabic-indic"},
        ]
        org = build_org(scenario)
        grown = provision_account(org, "fresh", "")
        assert [a.id for a in grown.accounts if a.name == "fresh"] == ["000000000001"]

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
        ps_ids = resolve_permission_set_ids(demo_org, "dana", "200000000001")
        policies = [p for ps in ps_ids for p in demo_org.permission_set(ps).policies]
        assert [p.name for p in policies] == ["frontend-access"]

    def test_no_assignments_yield_empty(self, demo_org):
        assert resolve_permission_set_ids(demo_org, "li", "200000000001") == ()

    def test_unknown_user_raises(self, demo_org):
        with pytest.raises(LookupError):
            resolve_permission_set_ids(demo_org, "ghost", "200000000001")

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
        resolved = resolve_permission_set_ids(org, "u1", "000000000042")
        # naive multiset union would see the set twice
        naive = [
            a.permission_set for a in org.assignments
            if a.subject_kind == "group" and a.subject in org.user("u1").groups
        ]
        assert len(naive) == 2
        assert resolved == ("shared",)

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
            assert resolve_permission_set_ids(org_g, u["id"], account) == \
                resolve_permission_set_ids(org_u, u["id"], account) == (ps,)

    def test_adding_assignment_never_shrinks_resolution(self):
        rng = random.Random(23)
        for _ in range(25):
            org = build_org(random_scenario(rng))
            user = rng.choice(org.users)
            account = rng.choice(org.accounts).id
            before = resolve_permission_set_ids(org, user.id, account)
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
            after = resolve_permission_set_ids(grown, user.id, account)
            assert set(before) <= set(after) and extra.permission_set in after

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

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_unsorted_duplicated_assignments_agree_with_naive_scan(self, seed):
        # built without build_org, so nothing sorts or dedups the assignments
        # before the index sees them
        rng = random.Random(seed)
        org = random_org(rng, n_accounts=4, n_users=5, n_groups=3)
        assignments = list(org.assignments) + rng.choices(org.assignments, k=len(org.assignments))
        rng.shuffle(assignments)
        direct = Organization(
            root=org.root, management_account=org.management_account, users=org.users,
            groups=org.groups, permission_sets=org.permission_sets,
            assignments=tuple(assignments),
        )
        for account in org.accounts:
            for user in org.users:
                assert resolve_permission_set_ids(direct, user.id, account.id) == \
                    self.naive_permission_set_ids(direct, user.id, account.id) == \
                    resolve_permission_set_ids(org, user.id, account.id)

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


def test_readme_field_table_matches_specs():
    """The README's scenario field table lists every field of _SPECS, in order."""
    from pathlib import Path

    from iamsim.org import _REQUIRED, _SPECS, _STRINGS

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ") and "`" in line]
    assert [(kind, field.strip("`")) for kind, field, _, _ in rows] == [
        (kind, field) for kind, spec in _SPECS.items() for field in spec]
    for kind, field, type_text, default_text in rows:
        type_, default = _SPECS[kind][field.strip("`")]
        assert (default_text == "required") == (default is _REQUIRED), (kind, field)
        if type_ is str:
            assert type_text == "string", (kind, field)
        elif type_ is _STRINGS:
            assert type_text == "list of strings", (kind, field)
        elif type_ is list:
            assert type_text.startswith("list of ") and type_text != "list of strings"
        else:
            assert "object" in type_text, (kind, field)
