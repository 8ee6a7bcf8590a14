"""Finite-section analysis of block covariance operators of locally
stationary multivariate time series.

The package builds, inverts, approximates and analyzes the covariance
operators of several locally stationary process families at desk scale,
with certified bounds (geometric inverse decay, Neumann tails) and
oracle-checked gap measurements for the decay-transfer, finite-projection,
smoothness-transfer and partial-covariance properties.
"""

from .errors import (ConditioningError, ConfigError, DegenerateFitError,
                     DivergenceError, DomainError, FitError, InputError,
                     ModelError, NonstatcovError, UnsupportedFamilyError)
from .operator_core import (BandedBlockWindow, BlockWindow, EigRange,
                            band_truncate, block_norms, demko_bound, gu,
                            schur_complement, spd_inverse, spectral_norm,
                            sym_eig_range, zeta)
from .reports import DecayProfile, GapReport, envelope_constant
from .models import (SRE, AssumptionFit, CoefficientFn, ModelSpec,
                     PhysicalDepEstimate, SamplePath, TvARCH, TvVAR, TvVMA,
                     affine_fn, assumption_fit, constant_fn, cov_pad,
                     cov_window, effective_memory, local_spectral_densities,
                     local_spectral_density, physical_dep_estimate,
                     simulate_ensemble, simulate_path, sinusoidal_fn,
                     spectral_eig_range, stability_radius, stationary_cov,
                     stationary_cov_sequence, stationary_window,
                     validate_model)
from .inverse_analysis import (InverseWindow, NeumannResult,
                               finite_section_inverse, inverse_decay_fit,
                               inverse_derivative_gap, inverse_lipschitz_gap,
                               inverse_smoothness_gap, model_inverse_window,
                               neumann_inverse, stationary_inverse_sequence)
from .var_extraction import (BaxterReport, KolmogorovGap, VarCoefficients,
                             VarSmoothnessReport, baxter_gaps, kolmogorov_gap,
                             stationary_var_coeffs,
                             stationary_var_coeffs_infinite,
                             var_coeffs_finite, var_coeffs_infinite,
                             var_smoothness_gap)
from .partial_cov import (CoherenceGapReport, PartialPair,
                          PartialSmoothnessReport, StationaryPartialPair,
                          coherence_consistency_gap, partial_cov_pair,
                          partial_smoothness_gap, partial_spectral_coherence,
                          self_partial_cov, stationary_partial_pair)
from .reference import REFERENCE_BUILDERS, get_reference_model

__version__ = "0.1.0"
