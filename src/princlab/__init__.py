"""princlab: exact-arithmetic lab for idempotent pairs, two-generated ideal
arithmetic, and comaximal factorization, with re-checkable certificates."""

__version__ = "0.1.0"

REPORT_SCHEMA = "princlab/2"
