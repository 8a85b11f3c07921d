"""Linear-algebra substrate: Schur complements, shortcut graphs, powers.

Implements Section 1.7 (definitions), Section 2.4 (CongestedClique
computation of the derived graphs) and Lemma 7 (matrix powers with bounded
subtractive error):

- :mod:`repro.linalg.eliminate` -- the one kernel the sampler builds
  ``ShortCut(G, S)`` and ``Schur(G, S)`` with: solves against the
  eliminated block ``V \\ S`` (the Schur one on SuperLU for CSR);
- :mod:`repro.linalg.schur` -- Definition-level ``Schur(G, S)`` oracles
  (Definitions 1 and 2): full block elimination, single-vertex
  elimination, the Corollary-3 QR-product construction and the
  first-hit law;
- :mod:`repro.linalg.shortcut` -- Definition-level ``ShortCut(G, S)``
  oracles (Definition 3): the ``n x n`` fundamental-matrix inverse and
  Corollary 2's absorbing power iteration; plus Algorithm 4's
  first-visit edge law;
- :mod:`repro.linalg.matpow` -- the repeated-squaring power ladder with
  per-squaring entry rounding and the Lemma 7 error recurrence;
- :mod:`repro.linalg.backend` -- the dense/sparse storage backends
  (:class:`~repro.linalg.backend.DenseLinalg` /
  :class:`~repro.linalg.backend.SparseLinalg`) plus the format-agnostic
  matrix accessors the walk layer consumes;
- :mod:`repro.linalg.threads` -- the per-worker OpenBLAS thread budget
  every forked process pool applies in its initializer.
"""

from repro.linalg.backend import (
    DenseLinalg,
    SparseLinalg,
    auto_linalg_name,
    is_sparse_matrix,
    matrix_col,
    make_linalg_backend,
    matrix_density,
    matrix_entry,
    matrix_nbytes,
    matrix_row,
    maybe_densify,
    resolve_linalg_backend,
    to_dense,
)
from repro.linalg.calibrate import (
    CrossoverProfile,
    load_profile,
    profile_for_config,
    run_calibration,
    save_profile,
)
from repro.linalg.matpow import (
    PowerLadder,
    lemma7_error_bound,
    round_matrix_down,
)
from repro.linalg.schur import (
    first_hit_distribution,
    schur_complement_graph,
    schur_complement_laplacian,
    schur_by_elimination,
    schur_transition_matrix,
    schur_via_qr_product,
)
from repro.linalg.shortcut import (
    first_visit_edge_distribution,
    shortcut_transition_matrix,
    shortcut_via_power_iteration,
)

__all__ = [
    "DenseLinalg",
    "SparseLinalg",
    "auto_linalg_name",
    "is_sparse_matrix",
    "make_linalg_backend",
    "matrix_col",
    "matrix_density",
    "matrix_entry",
    "matrix_nbytes",
    "matrix_row",
    "maybe_densify",
    "resolve_linalg_backend",
    "to_dense",
    "CrossoverProfile",
    "load_profile",
    "profile_for_config",
    "run_calibration",
    "save_profile",
    "PowerLadder",
    "lemma7_error_bound",
    "round_matrix_down",
    "first_hit_distribution",
    "schur_complement_graph",
    "schur_complement_laplacian",
    "schur_by_elimination",
    "schur_transition_matrix",
    "schur_via_qr_product",
    "first_visit_edge_distribution",
    "shortcut_transition_matrix",
    "shortcut_via_power_iteration",
]
