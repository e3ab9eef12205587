"""Differential-correctness harness for the nn/survival stack.

Three pillars guard the hand-rolled autograd/LSTM/SAFE substrate against
silent numerical drift while the hot paths get refactored:

* :mod:`repro.testing.reference` — slow, obviously-correct scalar
  re-implementations of the production kernels (LSTM cell, Dense, Adam,
  SAFE loss, survival transform, CUSUM) for differential testing, plus
  :class:`ReferenceOnlineXatu`, the per-record / per-customer oracle for
  the streaming detector;
* :mod:`repro.testing.golden` — versioned end-to-end golden fixtures
  (``manifest.json`` + ``arrays.npz``) recorded once and checked on every
  change via ``python -m repro.cli golden record|check``;
* :mod:`repro.testing.props` — a dependency-free property-based testing
  runner with shrinking, plus generators for tensors, hazard batches, and
  flow records.

See ``docs/TESTING.md`` for the workflow.
"""

from .golden import (
    DEFAULT_GOLDEN_DIR,
    GOLDEN_FORMAT_VERSION,
    GoldenEntry,
    GoldenFormatError,
    GoldenReport,
    GoldenSpec,
    check_golden,
    compute_golden_arrays,
    record_golden,
)
from .props import (
    Gen,
    PropertyError,
    arrays,
    choices,
    flow_records,
    forall,
    hazard_batches,
    integers,
    floats,
    run_property,
    tensors,
)
from .reference import (
    ReferenceOnlineXatu,
    diff_summary,
    max_abs_diff,
    reference_adam_step,
    reference_avg_pool_1d,
    reference_binary_cross_entropy,
    reference_cusum_scores,
    reference_dense,
    reference_hazard_to_survival,
    reference_lstm_cell,
    reference_lstm_sequence,
    reference_matrix_state,
    reference_max_pool_1d,
    reference_safe_survival_loss,
    reference_sgd_step,
    reference_sigmoid,
)

__all__ = [
    "GOLDEN_FORMAT_VERSION",
    "DEFAULT_GOLDEN_DIR",
    "GoldenSpec",
    "GoldenEntry",
    "GoldenReport",
    "GoldenFormatError",
    "compute_golden_arrays",
    "record_golden",
    "check_golden",
    "Gen",
    "PropertyError",
    "integers",
    "floats",
    "choices",
    "arrays",
    "tensors",
    "hazard_batches",
    "flow_records",
    "run_property",
    "forall",
    "reference_sigmoid",
    "reference_lstm_cell",
    "reference_lstm_sequence",
    "reference_avg_pool_1d",
    "reference_max_pool_1d",
    "reference_dense",
    "reference_adam_step",
    "reference_sgd_step",
    "reference_hazard_to_survival",
    "reference_safe_survival_loss",
    "reference_binary_cross_entropy",
    "reference_cusum_scores",
    "ReferenceOnlineXatu",
    "reference_matrix_state",
    "max_abs_diff",
    "diff_summary",
]
