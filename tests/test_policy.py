"""Policy grammar, pattern matching and the action-level ladder."""

import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iamsim import (
    ActionLevel,
    ActionPattern,
    ConditionBlock,
    Effect,
    PolicyParseError,
    ResourcePattern,
    Statement,
    VerbTable,
    action_matches,
    classify_action_level,
    condition_holds,
    generalize_action,
    parse_policy,
    resource_matches,
    serialize_policy,
)
from iamsim.policy import _lower, glob_match, split_action

from conftest import BOOKS_TABLE_ARN, BOOKS_TABLE_POLICY
from generators import (
    action_pattern_texts,
    concrete_actions,
    glob_patterns,
    glob_texts,
    mutate_json,
    policy_objs,
)


def glob_regex(pattern: str) -> re.Pattern:
    """Reference translation: '*' becomes '.*', everything else literal."""
    return re.compile("".join(".*" if c == "*" else re.escape(c) for c in pattern))


# ---------------------------------------------------------------------------
# parsing

class TestParse:
    def test_books_table_policy(self):
        doc = parse_policy(BOOKS_TABLE_POLICY)
        assert len(doc.statements) == 1
        stmt = doc.statements[0]
        assert stmt.effect is Effect.ALLOW
        assert [a.text for a in stmt.actions] == ["dynamodb:*"]
        assert [r.pattern for r in stmt.resources] == [BOOKS_TABLE_ARN]
        assert stmt.principals is None
        assert not stmt.condition.clauses

    def test_empty_statement_list(self):
        doc = parse_policy('{"Version":"2012-10-17","Statement":[]}')
        assert doc.statements == ()

    def test_lowercase_effect_rejected(self):
        bad = BOOKS_TABLE_POLICY.replace('"Allow"', '"allow"')
        with pytest.raises(PolicyParseError, match="allow"):
            parse_policy(bad)

    def test_malformed_json(self):
        with pytest.raises(PolicyParseError, match="malformed JSON"):
            parse_policy("{not json")

    def test_json_too_deep_for_the_decoder_is_malformed(self):
        with pytest.raises(PolicyParseError, match="malformed JSON"):
            parse_policy("[" * 100_000 + "]" * 100_000)

    def test_unknown_top_level_field(self):
        with pytest.raises(PolicyParseError, match="Id"):
            parse_policy('{"Version":"2012-10-17","Statement":[],"Id":"x"}')

    def test_wrong_version(self):
        with pytest.raises(PolicyParseError, match="version"):
            parse_policy('{"Version":"2012-10-18","Statement":[]}')

    @pytest.mark.parametrize("field, value, message", [
        ("Action", 5, "statement 0: Action must be a string or list of strings"),
        ("Resource", [], "statement 0: Resource list is empty"),
        ("Action", "s3", "statement 0: invalid action pattern 's3': expected 'service:operation'"),
        ("Principal", [], "statement 0: Principal list is empty"),
        ("Condition", {"StringEquals": {"": "x"}},
         "statement 0: condition keys must be non-empty strings"),
    ])
    def test_statement_errors_are_prefixed_once(self, field, value, message):
        stmt = {"Effect": "Allow", "Action": "s3:GetObject", "Resource": "*", field: value}
        with pytest.raises(PolicyParseError) as err:
            parse_policy(json.dumps({"Version": "2012-10-17", "Statement": [stmt]}))
        assert str(err.value) == message

    @pytest.mark.parametrize("missing, message", [
        (("Effect", "Action"), "statement 0: missing Effect"),
        (("Action", "Resource"), "statement 0: missing Action"),
        (("Resource",), "statement 0: missing Resource"),
    ])
    def test_the_first_missing_field_is_named(self, missing, message):
        stmt = {"Effect": "Allow", "Action": "s3:GetObject", "Resource": "*"}
        for key in missing:
            del stmt[key]
        with pytest.raises(PolicyParseError) as err:
            parse_policy({"Version": "2012-10-17", "Statement": [stmt]})
        assert str(err.value) == message

    def test_unknown_top_level_fields_are_listed_sorted(self):
        with pytest.raises(PolicyParseError) as err:
            parse_policy('{"Version":"2012-10-17","Statement":[],"Id":"x","Extra":1}')
        assert str(err.value) == "unknown top-level field(s) Extra, Id"

    def test_statements_share_the_parse_of_an_action_text(self):
        stmt = {"Effect": "Allow", "Action": "s3:GetObject", "Resource": "*"}
        first, second = parse_policy(
            {"Version": "2012-10-17", "Statement": [stmt, dict(stmt, Effect="Deny")]}
        ).statements
        assert first.actions[0] is second.actions[0]
        assert first.condition == second.condition == ConditionBlock()
        # a text that fails to parse fails every time
        for _ in range(2):
            with pytest.raises(PolicyParseError, match="one trailing"):
                parse_policy({"Version": "2012-10-17",
                              "Statement": [dict(stmt, Action="s3:G*t")]})

    @pytest.mark.parametrize("mutate", [
        lambda s: s.update(Sid="x"),
        lambda s: s.update(NotAction="s3:*"),
        lambda s: s.update(NotResource="*"),
        lambda s: s.update(NotPrincipal="u"),
        lambda s: s.update(Action=[]),
        lambda s: s.update(Resource=[]),
        lambda s: s.update(Action="s3:G*t"),
        lambda s: s.update(Action="s3*:Get"),
        lambda s: s.update(Action="*:GetObject"),
        lambda s: s.update(Action="a:b:c"),
        lambda s: s.update(Action=42),
        lambda s: s.update(Resource=""),
        lambda s: s.update(Principal=[]),
        lambda s: s.update(Condition={"NumericEquals": {"n": ["1"]}}),
        lambda s: s.update(Condition={"StringEquals": {"env": []}}),
        lambda s: s.update(Condition={"StringEquals": {"env": 5}}),
        lambda s: s.pop("Effect"),
        lambda s: s.update(Effect="ALLOW"),
    ])
    def test_near_miss_statements_rejected(self, mutate):
        stmt = {"Effect": "Allow", "Action": "s3:GetObject", "Resource": "*"}
        mutate(stmt)
        text = json.dumps({"Version": "2012-10-17", "Statement": [stmt]})
        with pytest.raises(PolicyParseError):
            parse_policy(text)

    @given(policy_objs, st.data())
    def test_randomized_near_miss_rejected(self, obj, data):
        """One random mutation makes any valid document unparseable."""
        mutation = data.draw(st.sampled_from([
            "version", "extra_top", "extra_stmt", "bad_effect", "bad_operator",
        ]))
        if mutation == "version":
            obj["Version"] = "2012-10-18"
        elif mutation == "extra_top":
            obj["Metadata"] = {}
        elif mutation == "extra_stmt":
            if not obj["Statement"]:
                obj["Statement"] = [{"Effect": "Allow", "Action": "s3:*", "Resource": "*"}]
            obj["Statement"][0]["Sid"] = "s"
        elif mutation == "bad_effect":
            if not obj["Statement"]:
                obj["Statement"] = [{"Effect": "Allow", "Action": "s3:*", "Resource": "*"}]
            obj["Statement"][0]["Effect"] = "allow"
        else:
            if not obj["Statement"]:
                obj["Statement"] = [{"Effect": "Allow", "Action": "s3:*", "Resource": "*"}]
            obj["Statement"][0]["Condition"] = {"DateGreaterThan": {"t": ["2024"]}}
        with pytest.raises(PolicyParseError):
            parse_policy(json.dumps(obj))

    @given(policy_objs, st.data())
    def test_object_parses_like_its_text(self, obj, data):
        """A decoded document gives the same result, or error text, as its JSON."""
        if data.draw(st.booleans()):
            obj = mutate_json(obj, data.draw)
        assume(not isinstance(obj, str))  # a string argument is always JSON text

        def outcome(source):
            try:
                return parse_policy(source, name="p")
            except PolicyParseError as exc:
                return f"error: {exc}"

        assert outcome(obj) == outcome(json.dumps(obj))

    @pytest.mark.parametrize("source", [5, None, ["x"], True, 1.5, ("Version",)])
    def test_non_object_argument_rejected(self, source):
        with pytest.raises(PolicyParseError) as err:
            parse_policy(source)
        assert str(err.value) == "policy document must be a JSON object"

    def test_single_string_fields_normalize_to_lists(self):
        doc = parse_policy(json.dumps({
            "Version": "2012-10-17",
            "Statement": [{
                "Effect": "Deny",
                "Principal": "user-3",
                "Action": "s3:Get*",
                "Resource": "*",
                "Condition": {"StringEquals": {"env": "prod"}},
            }],
        }))
        stmt = doc.statements[0]
        assert stmt.principals == ("user-3",)
        assert stmt.condition.clauses == {"StringEquals": {"env": ("prod",)}}

    def test_statement_order_preserved(self):
        doc = parse_policy(json.dumps({
            "Version": "2012-10-17",
            "Statement": [
                {"Effect": "Allow", "Action": "s3:*", "Resource": "*"},
                {"Effect": "Deny", "Action": "ec2:*", "Resource": "*"},
            ],
        }))
        assert [s.effect for s in doc.statements] == [Effect.ALLOW, Effect.DENY]


class TestSerialize:
    def test_empty_document(self):
        doc = parse_policy('{"Version":"2012-10-17","Statement":[]}')
        assert serialize_policy(doc) == '{"Version":"2012-10-17","Statement":[]}'

    def test_books_policy_reparses_equal(self):
        doc = parse_policy(BOOKS_TABLE_POLICY)
        assert parse_policy(serialize_policy(doc)) == doc

    def test_canonical_key_order(self):
        doc = parse_policy(json.dumps({
            "Version": "2012-10-17",
            "Statement": [{
                "Condition": {"StringEquals": {"env": "prod"}},
                "Resource": "*",
                "Action": "s3:*",
                "Principal": "u",
                "Effect": "Allow",
            }],
        }))
        obj = json.loads(serialize_policy(doc))
        assert list(obj) == ["Version", "Statement"]
        assert list(obj["Statement"][0]) == ["Effect", "Principal", "Action", "Resource", "Condition"]

    @given(policy_objs)
    def test_parse_serialize_identity(self, obj):
        doc = parse_policy(json.dumps(obj))
        assert parse_policy(serialize_policy(doc)) == doc
        # and serialization is a fixed point after one round
        text = serialize_policy(doc)
        assert serialize_policy(parse_policy(text)) == text


# ---------------------------------------------------------------------------
# matching

class TestActionMatching:
    @pytest.mark.parametrize("pattern,action,expected", [
        ("dynamodb:*", "dynamodb:PutItem", True),
        ("s3:Put*", "s3:PutObject", True),
        ("s3:Put*", "s3:GetObject", False),
        ("*", "kms:Decrypt", True),
        ("s3:GetObject", "s3:GetObject", True),
        ("s3:GetObject", "s3:GetObjectAcl", False),
        ("s3:put*", "s3:PutObject", False),  # case-sensitive
        ("s3:*", "ec2:StartInstances", False),
    ])
    def test_examples(self, pattern, action, expected):
        assert action_matches(pattern, action) is expected

    def test_wildcard_action_is_contract_violation(self):
        with pytest.raises(ValueError):
            action_matches("s3:*", "s3:Get*")

    @pytest.mark.parametrize("bad", ["s3:G*t", "*:GetObject", "s3*:Get", "a:b:c", ":", "s3:"])
    def test_invalid_patterns_rejected(self, bad):
        with pytest.raises(PolicyParseError):
            ActionPattern.parse(bad)

    @given(action_pattern_texts, concrete_actions)
    def test_agrees_with_regex_reference(self, pattern, action):
        expanded = "*:*" if pattern == "*" else pattern
        expected = glob_regex(expanded).fullmatch(action) is not None
        assert action_matches(pattern, action) is expected


class TestResourceMatching:
    def test_exact_arn_matches_itself(self):
        assert resource_matches(BOOKS_TABLE_ARN, BOOKS_TABLE_ARN)

    def test_universal_wildcard(self):
        assert resource_matches("*", "arn:aws:s3:::anything/at/all")

    def test_prefix_wildcard_spans_separators(self):
        # expectation computed with the regex reference: True
        pattern, arn = "arn:aws:s3:::assets/*", "arn:aws:s3:::assets/img/logo.png"
        assert glob_regex(pattern).fullmatch(arn)
        assert resource_matches(pattern, arn)

    def test_literal_pattern_rejects_other_arns(self):
        assert not resource_matches(BOOKS_TABLE_ARN, BOOKS_TABLE_ARN + "2")

    @given(glob_patterns, glob_texts)
    def test_glob_agrees_with_regex_reference(self, pattern, text):
        expected = glob_regex(pattern).fullmatch(text) is not None
        assert glob_match(pattern, text) is expected


class TestCompiledStatement:
    """A statement's lowered patterns decide as glob_match does on each pattern's text."""

    resource_patterns = st.one_of(
        glob_patterns.filter(bool), st.sampled_from(["*", "x*", "*x", "a*b", "**"]),
    )
    arns = st.text(alphabet="abx:/", min_size=1, max_size=10)

    @given(st.lists(action_pattern_texts, min_size=1, max_size=4),
           st.lists(resource_patterns, min_size=1, max_size=4),
           st.lists(concrete_actions, min_size=1, max_size=3),
           st.lists(arns, min_size=1, max_size=3))
    def test_agrees_with_per_pattern_matching(self, actions, resources, probes, arns):
        stmt = Statement(
            effect=Effect.ALLOW,
            actions=tuple(ActionPattern.parse(a) for a in actions),
            resources=tuple(ResourcePattern(r) for r in resources),
        )
        for action in probes:
            got = stmt.action_match(action)
            assert got is any(action_matches(p, action) for p in actions)
        for arn in arns:
            got = stmt.resource_match(arn)
            assert got is any(resource_matches(p, arn) for p in resources)
            assert got is any(glob_regex(p).fullmatch(arn) is not None for p in resources)

    @pytest.mark.parametrize("pattern,kind", [
        ("arn:aws:s3:::b", "literal"), ("*", "prefix"), ("arn:aws:s3:::b/*", "prefix"),
        ("*x", "glob"), ("a*b", "glob"), ("**", "glob"),
    ])
    def test_resource_lowering(self, pattern, kind):
        assert _lower([pattern]) == {"literal": (frozenset({pattern}), (), ()),
                                     "prefix": (frozenset(), (pattern[:-1],), ()),
                                     "glob": (frozenset(), (), (pattern,))}[kind]

    @pytest.mark.parametrize("pattern,prefix", [
        ("*", ""), ("*:*", ""), ("s3:*", "s3:"), ("s3:Get*", "s3:Get"), ("s3:GetObject", None),
    ])
    def test_action_lowering(self, pattern, prefix):
        action = ActionPattern.parse(pattern)
        stmt = Statement(effect=Effect.ALLOW, actions=(action,), resources=(ResourcePattern("*"),))
        assert stmt._action_parts == ((frozenset({action.text}), ()) if prefix is None
                                      else (frozenset(), (prefix,)))


class TestConditions:
    def test_empty_block_always_holds(self):
        assert condition_holds(ConditionBlock(), {}) is True
        assert condition_holds(ConditionBlock(), {"env": "prod"}) is True

    def test_string_equals(self):
        block = ConditionBlock({"StringEquals": {"env": ("prod",)}})
        assert condition_holds(block, {"env": "prod"})
        assert not condition_holds(block, {"env": "dev"})

    def test_string_like_glob(self):
        block = ConditionBlock({"StringLike": {"path": ("team/*",)}})
        assert glob_regex("team/*").fullmatch("team/red")  # reference agrees
        assert condition_holds(block, {"path": "team/red"})
        assert not condition_holds(block, {"path": "crew/red"})

    def test_absent_key_fails_clause(self):
        block = ConditionBlock({"StringEquals": {"env": ("prod",)}})
        assert not condition_holds(block, {})

    def test_clauses_are_conjunctive_values_disjunctive(self):
        block = ConditionBlock({
            "StringEquals": {"env": ("dev", "prod")},
            "StringLike": {"path": ("team/*",)},
        })
        assert condition_holds(block, {"env": "dev", "path": "team/x"})
        assert not condition_holds(block, {"env": "dev", "path": "crew/x"})

    def test_unknown_operator_rejected(self):
        with pytest.raises(PolicyParseError):
            ConditionBlock({"IpAddress": {"ip": ("10.0.0.0/8",)}})

    @pytest.mark.parametrize("values", ["prod", "", b"prod", {"prod": 1}, ("prod", 5), []])
    def test_value_list_must_be_a_list_of_strings(self, values):
        # a bare string would be taken for the list of its characters
        with pytest.raises(PolicyParseError,
                           match="^condition key 'env' needs at least one string value$"):
            ConditionBlock({"StringEquals": {"env": values}})

    def test_value_list_may_be_a_list(self):
        block = ConditionBlock({"StringEquals": {"env": ["prod"]}})
        assert condition_holds(block, {"env": "prod"})
        assert not condition_holds(block, {"env": "p"})


# ---------------------------------------------------------------------------
# action levels

class TestActionLevels:
    @pytest.mark.parametrize("pattern,level", [
        ("*:*", 1), ("*", 1), ("s3:*", 2), ("s3:Get*", 3), ("s3:PutObject", 4),
    ])
    def test_ladder_exemplars(self, pattern, level):
        assert classify_action_level(pattern) == ActionLevel(level)

    def test_generalize_to_verb_level(self):
        assert generalize_action("s3:PutObject", 3).pattern.text == "s3:Put*"

    def test_generalize_identity_at_exact_level(self):
        got = generalize_action("s3:PutObject", 4)
        assert got.pattern.text == "s3:PutObject" and not got.fallback

    def test_generalize_to_service_level(self):
        assert generalize_action("s3:PutObject", 2).pattern.text == "s3:*"

    def test_generalize_describe_verb(self):
        got = generalize_action("ec2:DescribeInstances", 3)
        assert got.pattern.text == "ec2:Describe*" and not got.fallback
        assert action_matches(got.pattern, "ec2:DescribeInstances")

    def test_generalize_refuses_level_one(self):
        with pytest.raises(ValueError):
            generalize_action("s3:GetObject", 1)

    def test_unlisted_verb_falls_back_to_exact(self):
        got = generalize_action("s3:TagResource", 3)
        assert got.fallback
        assert got.pattern.text == "s3:TagResource"
        assert classify_action_level(got.pattern) is ActionLevel.EXACT

    def test_longest_verb_prefix_wins(self):
        table = VerbTable.loads("Get\tread\nGetObject\tread\n")
        assert table.verb_for("GetObjectAcl") == "GetObject"

    @given(concrete_actions, st.sampled_from([2, 3, 4]))
    def test_level_match_coherence(self, action, level):
        got = generalize_action(action, level)
        assert action_matches(got.pattern, action)
        if not got.fallback:
            assert classify_action_level(got.pattern) == ActionLevel(level)

    @given(concrete_actions)
    @settings(max_examples=60)
    def test_monotone_specificity(self, action):
        """Each step down the ladder matches a subset of the step above."""
        probes = [
            f"{svc}:{op}"
            for svc in ("s3", "ec2", "iam")
            for op in ("GetObject", "PutObject", "DescribeInstances",
                       "TagResource", "ListRoles", "GetRole")
        ] + [action]
        service = action.split(":")[0]
        chain = [
            ActionPattern.parse("*"),
            generalize_action(action, 2).pattern,
            generalize_action(action, 3).pattern,
            generalize_action(action, 4).pattern,
        ]
        assert ActionPattern.parse(f"{service}:*") == chain[1]
        for wider, narrower in zip(chain, chain[1:]):
            for probe in probes:
                if action_matches(narrower, probe):
                    assert action_matches(wider, probe)


class TestVerbTable:
    def test_rejects_bad_category(self):
        with pytest.raises(PolicyParseError):
            VerbTable.loads("Get\tmaybe\n")

    def test_rejects_missing_tab(self):
        with pytest.raises(PolicyParseError):
            VerbTable.loads("Get read\n")

    def test_rejects_duplicate_verb(self):
        with pytest.raises(PolicyParseError):
            VerbTable.loads("Get\tread\nGet\twrite\n")

    def test_load_override_file(self, tmp_path):
        path = tmp_path / "verbs.tsv"
        path.write_text("Fetch\tread\n", encoding="utf-8")
        table = VerbTable.load(path)
        got = generalize_action("s3:FetchObject", 3, table=table)
        assert got.pattern.text == "s3:Fetch*" and not got.fallback

    def test_categories_exposed(self):
        table = VerbTable.loads("Get\tread\nPut\twrite\n")
        assert table.categories["Get"] == "read"
        assert table.categories["Put"] == "write"


def test_split_action_rejects_wildcards_and_junk():
    for bad in ("s3:Get*", "s3", "a:b:c", "S3:GetObject", "s3:Get Object"):
        with pytest.raises(ValueError):
            split_action(bad)
