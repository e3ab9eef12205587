"""Differential-correctness harness for the nn/survival stack.

Two pillars guard the hand-rolled autograd/LSTM/SAFE substrate against
silent numerical drift while the hot paths get refactored:

* :mod:`repro.testing.reference` — slow, obviously-correct scalar
  re-implementations of the production kernels (LSTM cell, Dense, Adam,
  SAFE loss, survival transform, CUSUM) for differential testing, the
  generic-tape layers the fused training kernels replace (``TapeLSTM``,
  ``TapeAvgPool1D``, ``TapeMaxPool1D``, ``on_tape``), the
  per-record NetFlow oracles (wire codec, packet sampling, matrix fold,
  signature match), and :class:`ReferenceOnlineXatu`, the per-record /
  per-customer oracle for the streaming detector;
* :mod:`repro.testing.golden` — versioned end-to-end golden fixtures
  (``manifest.json`` + ``arrays.npz``) recorded once and checked on every
  change via ``python -m repro.cli golden record|check``.

The third, property-based sweeps over these oracles and the stack's
invariants, runs on hypothesis inside the test suite (one derandomized
profile in ``tests/conftest.py``). See ``docs/TESTING.md`` for the
workflow.
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
from .reference import (
    ReferenceOnlineXatu,
    TapeAvgPool1D,
    TapeLSTM,
    TapeMaxPool1D,
    diff_summary,
    max_abs_diff,
    on_tape,
    reference_adam_step,
    reference_add_flow,
    reference_avg_pool_1d,
    reference_binary_cross_entropy,
    reference_cusum_scores,
    reference_decode_flow,
    reference_dense,
    reference_encode_flow,
    reference_hazard_to_survival,
    reference_lstm_cell,
    reference_lstm_sequence,
    reference_matches,
    reference_matrix_state,
    reference_max_pool_1d,
    reference_safe_survival_loss,
    reference_sample,
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
    "reference_sigmoid",
    "reference_lstm_cell",
    "reference_lstm_sequence",
    "reference_avg_pool_1d",
    "reference_max_pool_1d",
    "TapeLSTM",
    "TapeAvgPool1D",
    "TapeMaxPool1D",
    "on_tape",
    "reference_dense",
    "reference_adam_step",
    "reference_sgd_step",
    "reference_hazard_to_survival",
    "reference_safe_survival_loss",
    "reference_binary_cross_entropy",
    "reference_cusum_scores",
    "reference_encode_flow",
    "reference_decode_flow",
    "reference_sample",
    "reference_add_flow",
    "reference_matches",
    "ReferenceOnlineXatu",
    "reference_matrix_state",
    "max_abs_diff",
    "diff_summary",
]
