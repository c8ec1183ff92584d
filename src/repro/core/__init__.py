"""Core compressed-sensing library (the paper's primary contribution).

Public surface:

* :mod:`repro.core.dct` -- Eq. (4)-(7) DCT bases and fast transforms;
* :mod:`repro.core.sensing` -- the row-sampling encoder matrix ``Phi_M``
  and classic dense baselines;
* :mod:`repro.core.measurement` -- pluggable measurement families: the
  :class:`~repro.core.measurement.MeasurementModel` protocol, the
  ``register_measurement`` registry (mirroring ``register_basis``), and
  the built-in ``row_sampling`` / ``dense_codes`` / ``block_sampling``
  families;
* :mod:`repro.core.operators` -- the combined ``A = Phi_M @ Psi`` map;
* :mod:`repro.core.engine` -- the shared decode engine: frozen
  :class:`~repro.core.engine.DecodeContext` plans, the bounded
  ``(shape, basis, measurement)`` operator cache, and the canonical
  sample -> solve -> reshape path every layer routes through;
* :mod:`repro.core.executor` -- the execution seam: serial and
  process backends behind one ``map_tasks`` protocol, used by every
  fan-out (tiles, batched decodes, sweeps);
* :mod:`repro.core.solvers` -- L1 / greedy decoders for Eq. (9);
* :mod:`repro.core.rpca` -- robust PCA outlier detection;
* :mod:`repro.core.strategies` -- oracle / resampling / RPCA sampling;
* :mod:`repro.core.pipeline` -- the Fig. 7 evaluation pipeline;
* :mod:`repro.core.theory` -- Eq. (1)/(2) estimates;
* :mod:`repro.core.errors`, :mod:`repro.core.metrics` -- injection and
  evaluation helpers.
"""

from .blocks import BlockProcessor
from .dct import Dct2Basis, dct2, dct_basis_1d, dct_basis_2d, idct2
from .engine import (
    DecodeContext,
    DecodeEngine,
    OperatorCache,
    get_engine,
    register_basis,
    set_engine,
    use_engine,
)
from .errors import SparseErrorModel, add_measurement_noise, inject_sparse_errors
from .executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    SupervisedExecutor,
    TaskError,
    TaskResult,
    WorkerCrash,
    WorkerLossEvent,
    collect_values,
    default_workers,
    resolve_executor,
)
from .metrics import (
    classification_accuracy,
    confusion_matrix,
    normalized_error,
    psnr,
    rmse,
)
from .operators import CompositeOperator, LinearOperator
from .pipeline import (
    FrameOutcome,
    RobustnessSweep,
    SweepPoint,
    evaluate_frame,
    normalize_frame,
    process_frames,
)
from .measurement import (
    BlockSamplingMatrix,
    BlockSamplingModel,
    DenseCodeMatrix,
    DenseCodesModel,
    MeasurementModel,
    RowSamplingModel,
    get_measurement,
    measurement_names,
    register_measurement,
    resolve_measurement_for,
)
from .rpca import RpcaResult, detect_outliers, rpca
from .sensing import (
    RowSamplingMatrix,
    bernoulli_matrix,
    gaussian_matrix,
    hadamard_matrix,
    sample_indices,
    weighted_sample_indices,
)
from .solvers import (
    SolverResult,
    debias_on_support,
    solve,
    solve_batch,
    solve_bp_dr,
    solver_names,
)
from .strategies import (
    DecodeResult,
    NaiveStrategy,
    OracleExclusionStrategy,
    ResamplingStrategy,
    RpcaExclusionStrategy,
    WeightedSamplingStrategy,
    sample_and_reconstruct,
    validate_decode_inputs,
)
from .video import Dct3Basis, dct3, idct3, reconstruct_burst
from .wavelet import Haar2Basis, haar2, ihaar2
from .theory import (
    best_k_term,
    error_bound,
    mutual_coherence,
    recoverable_sparsity,
    required_measurements,
    significant_coefficients,
    sparsity_fraction,
)

__all__ = [
    "Dct2Basis",
    "BlockProcessor",
    "dct2",
    "idct2",
    "dct_basis_1d",
    "dct_basis_2d",
    "SparseErrorModel",
    "inject_sparse_errors",
    "add_measurement_noise",
    "rmse",
    "psnr",
    "normalized_error",
    "classification_accuracy",
    "confusion_matrix",
    "LinearOperator",
    "CompositeOperator",
    "RowSamplingMatrix",
    "gaussian_matrix",
    "bernoulli_matrix",
    "hadamard_matrix",
    "sample_indices",
    "MeasurementModel",
    "RowSamplingModel",
    "DenseCodesModel",
    "BlockSamplingModel",
    "DenseCodeMatrix",
    "BlockSamplingMatrix",
    "get_measurement",
    "measurement_names",
    "register_measurement",
    "resolve_measurement_for",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "SupervisedExecutor",
    "WorkerCrash",
    "WorkerLossEvent",
    "TaskResult",
    "TaskError",
    "collect_values",
    "default_workers",
    "resolve_executor",
    "SolverResult",
    "solve",
    "solve_batch",
    "solver_names",
    "debias_on_support",
    "solve_bp_dr",
    "RpcaResult",
    "rpca",
    "detect_outliers",
    "NaiveStrategy",
    "OracleExclusionStrategy",
    "ResamplingStrategy",
    "RpcaExclusionStrategy",
    "WeightedSamplingStrategy",
    "sample_and_reconstruct",
    "DecodeResult",
    "validate_decode_inputs",
    "DecodeContext",
    "DecodeEngine",
    "OperatorCache",
    "get_engine",
    "register_basis",
    "set_engine",
    "use_engine",
    "Haar2Basis",
    "Dct3Basis",
    "dct3",
    "idct3",
    "reconstruct_burst",
    "haar2",
    "ihaar2",
    "weighted_sample_indices",
    "normalize_frame",
    "evaluate_frame",
    "process_frames",
    "FrameOutcome",
    "SweepPoint",
    "RobustnessSweep",
    "required_measurements",
    "recoverable_sparsity",
    "error_bound",
    "best_k_term",
    "significant_coefficients",
    "sparsity_fraction",
    "mutual_coherence",
]
