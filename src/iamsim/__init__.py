"""Multi-account IAM simulator.

Models organizations of cloud accounts with single-sign-on principals and
permission sets, parses and evaluates Allow/Deny policy documents with
exact same-account and cross-account semantics, and analyzes audit
activity to flag unused privileges and generate least-privilege policies.
"""

from .audit import (
    AuditEvent,
    EventError,
    EventKind,
    EventStream,
    LogArchive,
    LogLineError,
    QueryFilter,
    archive_from_events,
    denied_access_summary,
    merge_archives,
    query,
    read_archive,
    write_archive,
)
from .engine import (
    AccessRequest,
    Decision,
    MatchTrace,
    Reason,
    RequestError,
    authorize,
    simulate,
)
from .oracle import oracle_authorize
from .org import (
    Assignment,
    Organization,
    OrgUnit,
    PermissionSet,
    Resource,
    ResourceShare,
    ScenarioError,
    SsoGroup,
    SsoUser,
    accounts_in_subtree,
    build_org,
    export_scenario,
    load_scenario,
    provision_account,
    shares_covering,
    validate_org,
)
from .policy import (
    ActionLevel,
    ActionPattern,
    ConditionBlock,
    Effect,
    Generalized,
    PolicyDocument,
    PolicyParseError,
    ResourcePattern,
    Statement,
    Verdict,
    VerbTable,
    action_matches,
    classify_action_level,
    condition_holds,
    generalize_action,
    parse_policy,
    resource_matches,
    serialize_policy,
)
from .usage import (
    GeneratedPolicy,
    UsageError,
    UsageIndex,
    UnusedEntry,
    VerificationResult,
    build_usage_index,
    generate_least_privilege,
    replay_verify,
    unused_report,
)

__version__ = "0.1.0"
