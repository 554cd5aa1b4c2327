"""Policy documents and the wildcard pattern language they are written in.

A policy document is a small, closed JSON dialect: a fixed ``Version``
literal and a list of statements, each carrying ``Effect`` (Allow or Deny),
``Action``, ``Resource`` and optional ``Principal`` / ``Condition`` fields.
``Action`` patterns take the form ``service:Operation`` with at most one
wildcard, trailing only (``s3:Put*``), or the universal ``*`` / ``*:*``.
``Resource`` patterns permit ``*`` anywhere. Matching is case-sensitive
throughout. Anything outside this grammar is rejected at parse time rather
than coerced: unknown fields, unknown condition operators, non-canonical
effects and ``Not*`` fields are all errors.

Action patterns are ranked on a four-step specificity ladder (see
:class:`ActionLevel`), and concrete actions can be widened back up the
ladder with :func:`generalize_action`, which consults a configurable table
classifying operation verbs as read or write.

Every pattern means what :func:`glob_match` makes of its text, which is
what :func:`action_matches` and :func:`resource_matches` test. A
:class:`Statement` lowers all its patterns once, on its first match, with
:func:`_lower`: a text without ``*`` is exact, a text whose only ``*`` is the
last character is the prefix before it (``s3:Get*`` is ``"s3:Get"`` and
``*`` is ``""``), and any other text is a residual glob. Action patterns are
lowered from their text, with ``*:*`` fed in as ``*``: a concrete action has
exactly one ``:``, so both match every action. The action grammar leaves no
residual glob, so a whole statement is tested with two set lookups, two
``str.startswith(tuple)`` calls and the residual resource globs.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from importlib import resources
from typing import Iterable, Mapping, Union

from .textin import open_text, utf8_problem

POLICY_VERSION = "2012-10-17"

CONDITION_OPERATORS = ("StringEquals", "StringLike")

_TOP_LEVEL_KEYS = frozenset({"Version", "Statement"})
_STATEMENT_KEYS = frozenset({"Effect", "Principal", "Action", "Resource", "Condition"})
_REQUIRED_STATEMENT_KEYS = frozenset({"Effect", "Action", "Resource"})

_SERVICE_RE = re.compile(r"[a-z0-9-]+\Z")
_OPERATION_RE = re.compile(r"[A-Za-z0-9]+\Z")  # also the verb-table alphabet


class PolicyParseError(ValueError):
    """A document, pattern or verb table violates the grammar."""


class Effect(str, Enum):
    ALLOW = "Allow"
    DENY = "Deny"


_EFFECTS = {e.value: e for e in Effect}


class Verdict(str, Enum):
    """Allow/Deny outcome vocabulary, shared by the evaluator and audit log."""

    ALLOW = "Allow"
    DENY = "Deny"


class ActionLevel(IntEnum):
    """Specificity of an action pattern, least to most specific.

    FULL is ``*:*``, SERVICE is ``service:*``, VERB is ``service:Prefix*``
    and EXACT is a single concrete operation.
    """

    FULL = 1
    SERVICE = 2
    VERB = 3
    EXACT = 4


def glob_match(pattern: str, text: str) -> bool:
    """Match ``text`` against ``pattern`` where ``*`` spans any character run.

    ``*`` matches the empty string and crosses ``:`` and ``/``; every other
    character is literal. Case-sensitive.
    """
    parts = pattern.split("*")
    if len(parts) == 1:
        return pattern == text
    first, *middle, last = parts
    if not text.startswith(first) or not text.endswith(last):
        return False
    pos = len(first)
    end = len(text) - len(last)
    for part in middle:
        if not part:
            continue
        found = text.find(part, pos, end)
        if found < 0:
            return False
        pos = found + len(part)
    return pos <= end


def check_operation_pattern(op: str) -> None:
    """Accept ``*``, an operation name, or a name with one trailing ``*``."""
    if op == "*":
        return
    body = op[:-1] if op.endswith("*") else op
    if not _OPERATION_RE.fullmatch(body):
        raise PolicyParseError(f"invalid operation pattern {op!r}: one trailing '*' at most")


@dataclass(frozen=True)
class ActionPattern:
    """An action matcher of the form ``service:operation``.

    The service token is lowercase and wildcard-free unless the whole
    pattern is ``*:*``; the operation part is an exact name, a name with
    one trailing ``*``, or ``*`` alone.
    """

    service: str
    operation_pattern: str

    def __post_init__(self) -> None:
        if self.service == "*":
            if self.operation_pattern != "*":
                raise PolicyParseError(
                    f"wildcard service is only legal as '*:*', got "
                    f"'{self.service}:{self.operation_pattern}'"
                )
            return
        if not _SERVICE_RE.fullmatch(self.service):
            raise PolicyParseError(f"invalid service token {self.service!r}")
        check_operation_pattern(self.operation_pattern)

    @classmethod
    def parse(cls, text: str) -> "ActionPattern":
        if text == "*":
            return cls("*", "*")
        parts = text.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise PolicyParseError(
                f"invalid action pattern {text!r}: expected 'service:operation'"
            )
        return cls(parts[0], parts[1])

    @property
    def text(self) -> str:
        return f"{self.service}:{self.operation_pattern}"

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class ResourcePattern:
    """A resource matcher over the ARN alphabet; ``*`` is legal anywhere."""

    pattern: str

    def __post_init__(self) -> None:
        if not isinstance(self.pattern, str) or not self.pattern:
            raise PolicyParseError("resource pattern must be a non-empty string")

    def __str__(self) -> str:
        return self.pattern


@dataclass(frozen=True)
class ConditionBlock:
    """Conjunction of clauses: operator -> context key -> accepted values.

    The empty block always holds. A clause whose key is absent from the
    request context fails.
    """

    clauses: Mapping[str, Mapping[str, tuple[str, ...]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for operator, keys in self.clauses.items():
            if operator not in CONDITION_OPERATORS:
                raise PolicyParseError(f"unsupported condition operator {operator!r}")
            for key, values in keys.items():
                if not isinstance(key, str) or not key:
                    raise PolicyParseError("condition keys must be non-empty strings")
                if (not isinstance(values, (tuple, list)) or not values
                        or not all(isinstance(v, str) for v in values)):
                    raise PolicyParseError(
                        f"condition key {key!r} needs at least one string value"
                    )


def _lower(patterns: Iterable[str]) -> tuple[frozenset[str], tuple[str, ...], tuple[str, ...]]:
    """Split glob texts into exact texts, the prefixes of those whose only
    ``*`` is the last character, and the residual globs."""
    exact: set[str] = set()
    prefixes: list[str] = []
    globs: list[str] = []
    for text in patterns:
        star = text.find("*")
        if star < 0:
            exact.add(text)
        elif star == len(text) - 1:
            prefixes.append(text[:-1])
        else:
            globs.append(text)
    return frozenset(exact), tuple(prefixes), tuple(globs)


@dataclass(frozen=True)
class Statement:
    """One Allow/Deny rule over actions and resources.

    ``principals`` is None for identity-attached statements and a non-empty
    tuple of user or account ids for resource-attached ones.
    """

    effect: Effect
    actions: tuple[ActionPattern, ...]
    resources: tuple[ResourcePattern, ...]
    condition: ConditionBlock = field(default_factory=ConditionBlock)
    principals: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.effect, Effect):
            raise PolicyParseError(f"invalid effect {self.effect!r}")
        if not self.actions:
            raise PolicyParseError("statement has an empty action list")
        if not self.resources:
            raise PolicyParseError("statement has an empty resource list")
        if self.principals is not None and not self.principals:
            raise PolicyParseError("principal list, when present, must be non-empty")

    # The lowered patterns are built on the first match, not at parse time,
    # so loading a scenario pays nothing for statements no request reaches.
    @functools.cached_property
    def _action_parts(self) -> tuple[frozenset[str], tuple[str, ...]]:
        # an action pattern's only '*' is its last character, so no residual glob
        return _lower("*" if p.service == "*" else p.text for p in self.actions)[:2]

    @functools.cached_property
    def _resource_parts(self) -> tuple[frozenset[str], tuple[str, ...], tuple[str, ...]]:
        return _lower(p.pattern for p in self.resources)

    def action_match(self, action: str) -> bool:
        """True iff some action pattern matches the concrete ``action``,
        which the caller has checked (see :func:`split_action`)."""
        exact, prefixes = self._action_parts
        return action in exact or action.startswith(prefixes)

    def resource_match(self, arn: str) -> bool:
        """True iff some resource pattern matches the concrete ``arn``."""
        literal, prefixes, globs = self._resource_parts
        return (arn in literal or arn.startswith(prefixes)
                or any(glob_match(g, arn) for g in globs))


@dataclass(frozen=True)
class PolicyDocument:
    """An ordered list of statements under the fixed version literal.

    ``name`` is assigned by whoever registers the document (scenario files,
    generated policies); it is carried for reporting and excluded from
    equality.
    """

    statements: tuple[Statement, ...]
    name: str = field(default="policy", compare=False)


def _string_or_list(value: object, what: str) -> list[str]:
    if isinstance(value, str):
        items = [value]
    elif isinstance(value, list) and all(isinstance(v, str) for v in value):
        items = value
    else:
        raise PolicyParseError(f"{what} must be a string or list of strings")
    if not items:
        raise PolicyParseError(f"{what} list is empty")
    return items


def _parse_condition(value: object) -> ConditionBlock:
    if not isinstance(value, dict):
        raise PolicyParseError("Condition must be an object")
    clauses: dict[str, dict[str, tuple[str, ...]]] = {}
    for operator, keys in value.items():
        if operator not in CONDITION_OPERATORS:
            raise PolicyParseError(f"unsupported condition operator {operator!r}")
        if not isinstance(keys, dict):
            raise PolicyParseError(f"condition {operator} must map keys to values")
        clauses[operator] = {
            key: tuple(_string_or_list(vals, f"condition value for {key!r}"))
            for key, vals in keys.items()
        }
    return ConditionBlock(clauses)


# Policies repeat a few action texts many times (the benchmark's large org has
# 66 distinct texts among 2,761 action patterns); patterns are frozen, so the
# statements share one parse of each text.
_action_pattern = functools.lru_cache(maxsize=1024)(ActionPattern.parse)
_NO_CONDITION = ConditionBlock()  # shared by every statement without a Condition


def _parse_statement(obj: object) -> Statement:
    """Parse one statement; :func:`parse_policy` adds its location to errors."""
    if not isinstance(obj, dict):
        raise PolicyParseError("must be an object")
    if not obj.keys() <= _STATEMENT_KEYS:
        unknown = sorted(obj.keys() - _STATEMENT_KEYS)
        raise PolicyParseError(f"unknown field(s) {', '.join(unknown)}")
    if not obj.keys() >= _REQUIRED_STATEMENT_KEYS:
        missing = next(k for k in ("Effect", "Action", "Resource") if k not in obj)
        raise PolicyParseError(f"missing {missing}")
    effect_raw = obj["Effect"]
    effect = _EFFECTS.get(effect_raw) if isinstance(effect_raw, str) else None
    if effect is None:
        raise PolicyParseError(f"invalid Effect {effect_raw!r}")
    action_texts = _string_or_list(obj["Action"], "Action")
    resource_texts = _string_or_list(obj["Resource"], "Resource")
    actions = tuple(map(_action_pattern, action_texts))
    resources_ = tuple(map(ResourcePattern, resource_texts))
    principals: tuple[str, ...] | None = None
    if "Principal" in obj:
        principals = tuple(_string_or_list(obj["Principal"], "Principal"))
    condition = _NO_CONDITION
    if "Condition" in obj:
        condition = _parse_condition(obj["Condition"])
    return Statement(
        effect=effect,
        actions=actions,
        resources=resources_,
        condition=condition,
        principals=principals,
    )


def parse_policy(text: str | dict, name: str = "policy") -> PolicyDocument:
    """Parse a policy document, rejecting anything outside the grammar.

    ``text`` is JSON text or the object :func:`json.loads` makes of it;
    both give the same document or the same error. Single-string
    ``Action`` / ``Resource`` / ``Principal`` values are normalized to
    one-element lists; statement order is preserved.
    """
    raw = text
    if isinstance(text, str):
        try:
            raw = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deep for the decoder
            raise PolicyParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise PolicyParseError("policy document must be a JSON object")
    if not raw.keys() <= _TOP_LEVEL_KEYS:
        unknown = sorted(raw.keys() - _TOP_LEVEL_KEYS)
        raise PolicyParseError(f"unknown top-level field(s) {', '.join(unknown)}")
    if raw.get("Version") != POLICY_VERSION:
        raise PolicyParseError(
            f"unsupported policy version {raw.get('Version')!r}; expected {POLICY_VERSION!r}"
        )
    statements_raw = raw.get("Statement")
    if not isinstance(statements_raw, list):
        raise PolicyParseError("Statement must be a list")
    statements = []
    for index, obj in enumerate(statements_raw):
        try:
            statements.append(_parse_statement(obj))
        except PolicyParseError as exc:
            raise PolicyParseError(f"statement {index}: {exc}") from exc
    return PolicyDocument(statements=tuple(statements), name=name)


def policy_to_obj(doc: PolicyDocument) -> dict:
    """Render a document as a JSON-ready object with canonical key order."""
    statements = []
    for stmt in doc.statements:
        out: dict[str, object] = {"Effect": stmt.effect.value}
        if stmt.principals is not None:
            out["Principal"] = list(stmt.principals)
        out["Action"] = [a.text for a in stmt.actions]
        out["Resource"] = [r.pattern for r in stmt.resources]
        if stmt.condition.clauses:
            out["Condition"] = {
                operator: {key: list(values) for key, values in keys.items()}
                for operator, keys in stmt.condition.clauses.items()
            }
        statements.append(out)
    return {"Version": POLICY_VERSION, "Statement": statements}


def serialize_policy(doc: PolicyDocument, indent: int | None = None) -> str:
    """Serialize a document; reparsing the output reproduces ``doc``.

    Compact by default; pass ``indent`` for a pretty rendering.
    """
    obj = policy_to_obj(doc)
    if indent is None:
        return json.dumps(obj, separators=(",", ":"))
    return json.dumps(obj, indent=indent)


def split_action(action: str) -> tuple[str, str]:
    """Split a concrete ``service:Operation`` action, rejecting wildcards."""
    parts = action.split(":")
    if len(parts) != 2 or not _SERVICE_RE.fullmatch(parts[0]) or not _OPERATION_RE.fullmatch(parts[1]):
        raise ValueError(f"not a concrete service:Operation action: {action!r}")
    return parts[0], parts[1]


def action_matches(pattern: Union[ActionPattern, str], action: str) -> bool:
    """True iff the concrete ``action`` is in the pattern's language."""
    if isinstance(pattern, str):
        pattern = ActionPattern.parse(pattern)
    split_action(action)
    return glob_match(pattern.text, action)


def resource_matches(pattern: Union[ResourcePattern, str], arn: str) -> bool:
    """True iff the concrete ``arn`` is in the pattern's language."""
    if isinstance(pattern, str):
        pattern = ResourcePattern(pattern)
    return glob_match(pattern.pattern, arn)


def condition_holds(block: ConditionBlock, context: Mapping[str, str]) -> bool:
    """True iff every clause of ``block`` holds under ``context``."""
    for operator, keys in block.clauses.items():
        for key, values in keys.items():
            actual = context.get(key)
            if actual is None:
                return False
            if operator == "StringEquals":
                if actual not in values:
                    return False
            else:  # StringLike
                if not any(glob_match(v, actual) for v in values):
                    return False
    return True


def classify_action_level(pattern: Union[ActionPattern, str]) -> ActionLevel:
    """Place a pattern on the specificity ladder."""
    if isinstance(pattern, str):
        pattern = ActionPattern.parse(pattern)
    if pattern.service == "*":
        return ActionLevel.FULL
    if pattern.operation_pattern == "*":
        return ActionLevel.SERVICE
    if pattern.operation_pattern.endswith("*"):
        return ActionLevel.VERB
    return ActionLevel.EXACT


@dataclass(frozen=True)
class VerbTable:
    """Operation verbs with their read/write category.

    Drives VERB-level widening: an operation generalizes to
    ``service:Verb*`` when some listed verb prefixes it. Loaded from a
    tab-separated file, one ``Verb<TAB>read|write`` line each, so
    deployments can swap in their own vocabulary.
    """

    categories: Mapping[str, str]

    def verb_for(self, operation: str) -> str | None:
        """Longest listed verb that prefixes ``operation``, or None."""
        best: str | None = None
        for verb in self.categories:
            if operation.startswith(verb) and (best is None or len(verb) > len(best)):
                best = verb
        return best

    @classmethod
    def loads(cls, text: str) -> "VerbTable":
        categories: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise PolicyParseError(
                    f"verb table line {lineno}: expected 'Verb<TAB>read|write'"
                )
            verb, category = parts
            if not _OPERATION_RE.fullmatch(verb):
                raise PolicyParseError(f"verb table line {lineno}: bad verb {verb!r}")
            if category not in ("read", "write"):
                raise PolicyParseError(
                    f"verb table line {lineno}: category must be read or write"
                )
            if verb in categories:
                raise PolicyParseError(f"verb table line {lineno}: duplicate verb {verb!r}")
            categories[verb] = category
        return cls(categories)

    @classmethod
    def load(cls, path) -> "VerbTable":
        with open_text(path) as fh:
            text = fh.read()
        problem = utf8_problem(text, path)
        if problem:
            raise PolicyParseError(problem)
        return cls.loads(text)


@functools.lru_cache(maxsize=1)
def default_verb_table() -> VerbTable:
    text = resources.files("iamsim").joinpath("data/verbs.tsv").read_text("utf-8")
    return VerbTable.loads(text)


@dataclass(frozen=True)
class Generalized:
    """Result of widening one concrete action; ``fallback`` marks an
    operation whose verb is unlisted, kept exact instead of verb-widened."""

    pattern: ActionPattern
    fallback: bool


def generalize_action(
    action: str,
    target: ActionLevel | int,
    table: VerbTable | None = None,
) -> Generalized:
    """Widen a concrete action to the requested specificity level.

    The returned pattern always matches ``action``. Level FULL is refused:
    widening a single action to ``*:*`` is never meaningful.
    """
    level = ActionLevel(target)
    if level is ActionLevel.FULL:
        raise ValueError("cannot generalize a single action to the universal pattern")
    service, operation = split_action(action)
    if level is ActionLevel.EXACT:
        return Generalized(ActionPattern(service, operation), False)
    if level is ActionLevel.SERVICE:
        return Generalized(ActionPattern(service, "*"), False)
    table = table or default_verb_table()
    verb = table.verb_for(operation)
    if verb is None:
        return Generalized(ActionPattern(service, operation), True)
    return Generalized(ActionPattern(service, verb + "*"), False)
