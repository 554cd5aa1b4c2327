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
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from importlib import resources
from typing import Mapping, Union

POLICY_VERSION = "2012-10-17"

CONDITION_OPERATORS = ("StringEquals", "StringLike")

_TOP_LEVEL_KEYS = frozenset({"Version", "Statement"})
_STATEMENT_KEYS = frozenset({"Effect", "Principal", "Action", "Resource", "Condition"})

_SERVICE_RE = re.compile(r"[a-z0-9-]+\Z")
_OPERATION_RE = re.compile(r"[A-Za-z0-9]+\Z")  # also the verb-table alphabet


class PolicyParseError(ValueError):
    """A document, pattern or verb table violates the grammar."""


class Effect(str, Enum):
    ALLOW = "Allow"
    DENY = "Deny"


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

    def matches(self, arn: str) -> bool:
        return glob_match(self.pattern, arn)

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
                if not values or not all(isinstance(v, str) for v in values):
                    raise PolicyParseError(
                        f"condition key {key!r} needs at least one string value"
                    )

    @property
    def is_empty(self) -> bool:
        return not self.clauses

    def holds(self, context: Mapping[str, str]) -> bool:
        for operator, keys in self.clauses.items():
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


@dataclass(frozen=True)
class PolicyDocument:
    """An ordered list of statements under the fixed version literal.

    ``name`` is assigned by whoever registers the document (scenario files,
    generated policies); it is carried for reporting and excluded from
    equality.
    """

    statements: tuple[Statement, ...]
    name: str = field(default="policy", compare=False)
    version: str = POLICY_VERSION

    def __post_init__(self) -> None:
        if self.version != POLICY_VERSION:
            raise PolicyParseError(
                f"unsupported policy version {self.version!r}; expected {POLICY_VERSION!r}"
            )


def _string_or_list(value: object, what: str, where: str) -> list[str]:
    if isinstance(value, str):
        items = [value]
    elif isinstance(value, list) and all(isinstance(v, str) for v in value):
        items = list(value)
    else:
        raise PolicyParseError(f"{where}: {what} must be a string or list of strings")
    if not items:
        raise PolicyParseError(f"{where}: {what} list is empty")
    return items


def _parse_condition(value: object, where: str) -> ConditionBlock:
    if not isinstance(value, dict):
        raise PolicyParseError(f"{where}: Condition must be an object")
    clauses: dict[str, dict[str, tuple[str, ...]]] = {}
    for operator, keys in value.items():
        if operator not in CONDITION_OPERATORS:
            raise PolicyParseError(
                f"{where}: unsupported condition operator {operator!r}"
            )
        if not isinstance(keys, dict):
            raise PolicyParseError(f"{where}: condition {operator} must map keys to values")
        clauses[operator] = {
            key: tuple(_string_or_list(vals, f"condition value for {key!r}", where))
            for key, vals in keys.items()
        }
    return ConditionBlock(clauses)


def _parse_statement(obj: object, index: int) -> Statement:
    where = f"statement {index}"
    if not isinstance(obj, dict):
        raise PolicyParseError(f"{where}: must be an object")
    unknown = sorted(set(obj) - _STATEMENT_KEYS)
    if unknown:
        raise PolicyParseError(f"{where}: unknown field(s) {', '.join(unknown)}")
    for required in ("Effect", "Action", "Resource"):
        if required not in obj:
            raise PolicyParseError(f"{where}: missing {required}")
    effect_raw = obj["Effect"]
    if effect_raw not in (Effect.ALLOW.value, Effect.DENY.value):
        raise PolicyParseError(f"{where}: invalid Effect {effect_raw!r}")
    action_texts = _string_or_list(obj["Action"], "Action", where)
    resource_texts = _string_or_list(obj["Resource"], "Resource", where)
    try:
        actions = tuple(ActionPattern.parse(a) for a in action_texts)
        resources_ = tuple(ResourcePattern(r) for r in resource_texts)
    except PolicyParseError as exc:
        raise PolicyParseError(f"{where}: {exc}") from exc
    principals: tuple[str, ...] | None = None
    if "Principal" in obj:
        principals = tuple(_string_or_list(obj["Principal"], "Principal", where))
    condition = ConditionBlock()
    if "Condition" in obj:
        condition = _parse_condition(obj["Condition"], where)
    return Statement(
        effect=Effect(effect_raw),
        actions=actions,
        resources=resources_,
        condition=condition,
        principals=principals,
    )


def parse_policy(text: str, name: str = "policy") -> PolicyDocument:
    """Parse a policy JSON document, rejecting anything outside the grammar.

    Single-string ``Action`` / ``Resource`` / ``Principal`` values are
    normalized to one-element lists; statement order is preserved.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolicyParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise PolicyParseError("policy document must be a JSON object")
    unknown = sorted(set(raw) - _TOP_LEVEL_KEYS)
    if unknown:
        raise PolicyParseError(f"unknown top-level field(s) {', '.join(unknown)}")
    if raw.get("Version") != POLICY_VERSION:
        raise PolicyParseError(
            f"unsupported policy version {raw.get('Version')!r}; expected {POLICY_VERSION!r}"
        )
    statements_raw = raw.get("Statement")
    if not isinstance(statements_raw, list):
        raise PolicyParseError("Statement must be a list")
    statements = tuple(_parse_statement(s, i) for i, s in enumerate(statements_raw))
    return PolicyDocument(statements=statements, name=name)


def policy_to_obj(doc: PolicyDocument) -> dict:
    """Render a document as a JSON-ready object with canonical key order."""
    statements = []
    for stmt in doc.statements:
        out: dict[str, object] = {"Effect": stmt.effect.value}
        if stmt.principals is not None:
            out["Principal"] = list(stmt.principals)
        out["Action"] = [a.text for a in stmt.actions]
        out["Resource"] = [r.pattern for r in stmt.resources]
        if not stmt.condition.is_empty:
            out["Condition"] = {
                operator: {key: list(values) for key, values in keys.items()}
                for operator, keys in stmt.condition.clauses.items()
            }
        statements.append(out)
    return {"Version": doc.version, "Statement": statements}


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
    service, operation = split_action(action)
    if pattern.service == "*":
        return True
    if pattern.service != service:
        return False
    op = pattern.operation_pattern
    if op == "*":
        return True
    if op.endswith("*"):
        return operation.startswith(op[:-1])
    return operation == op


def resource_matches(pattern: Union[ResourcePattern, str], arn: str) -> bool:
    """True iff the concrete ``arn`` is in the pattern's language."""
    if isinstance(pattern, str):
        pattern = ResourcePattern(pattern)
    return pattern.matches(arn)


def condition_holds(block: ConditionBlock, context: Mapping[str, str]) -> bool:
    """True iff every clause of ``block`` holds under ``context``."""
    return block.holds(context)


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

    def category(self, verb: str) -> str:
        return self.categories[verb]

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
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())


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
