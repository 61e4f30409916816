"""uwh: batch ETL engine plus embedded read-only snowflake warehouse.

Pipeline stages: extract (ingest), cleanse, transform (plan execution),
and load/index (warehouse), driven either as a library or through the
``uwh`` command line. A deterministic data generator with a dirt ledger
backs the test suite.
"""

from .canonical import (
    canonical_plan,
    canonical_plan_text,
    canonical_rules,
    canonical_rules_text,
    canonical_schema,
    canonical_schema_text,
)
from .cleanse import cleanse_staging, cleanse_table, dedup, parse_rules, reconcile_foreign_keys
from .datagen import DirtLedger, GenConfig, generate, load_ledger
from .errors import (
    IntegrityError,
    ManifestError,
    MissingInputError,
    ParseError,
    PlanParseError,
    PlanValidationError,
    ReadOnlyError,
    UwhError,
    ValidationError,
)
from .ingest import ExtractionReport, extract_database, extract_table
from .manifest import parse_schema_manifest, render_manifest
from .plan import parse_plan, pretty_plan
from .schema import (
    ColumnDef,
    DatabaseSchema,
    ForeignKey,
    Table,
    TableSchema,
    check_referential_integrity,
    check_row,
    validate_schema,
)
from .staging import StagingArea, dump_staging, load_staging, staging_fingerprint
from .transform import execute_plan, validate_plan
from .values import RawCell, ValueType, make_decimal
from .warehouse import (
    Filter,
    Measure,
    StarQuery,
    assemble_snowflake,
    build_index,
    load,
    open_warehouse,
    star_query,
)

__version__ = "0.1.0"
