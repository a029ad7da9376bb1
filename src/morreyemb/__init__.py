"""Closed-form embedding constants between weighted local Morrey-type and
Lebesgue spaces, the Hardy-type functionals behind them, and a brute-force
extremizer oracle for verification.
"""

from .errors import (DegenerateRatio, GateFailed, HypothesisViolated,
                     Inadmissible, InadmissibleExponents, IndeterminatePower,
                     InvalidExponent, MorreyError, NotAWeight,
                     QuadratureFailure, UndefinedStieltjes, WitnessNotFound)
from .extreal import EXT_INF, EXT_ZERO, ExtReal, conjugate_exponent
from .profiles import (ExpProfile, FnProfile, PiecewisePowerProfile,
                       PowerProfile, ProductProfile, RadialProfile,
                       ShiftedPowerProfile, constant, power, tabulated,
                       truncated_power)
from .integration import (MonotoneIntegrator, ball_volume, integrate_halfline,
                          sphere_area, stieltjes_integral)
from .weights import (Side, Weight, head_norm, lp_norm_interval,
                      muckenhoupt_ap_estimate, omega_class_check,
                      profile_from_dict, tail_norm)
from .norms import (GridFunction, dual_lm_norm, fubini_weight, lm_norm,
                    weighted_lp_norm)
from .hardy import (HardyProblem, hardy_A, hardy_A_star, reverse_hardy_C,
                    reverse_hardy_C_star, sup_operator_constant)
from .embeddings import (CaseTag, EmbeddingProblem, associate_norm,
                         classify_case, embedding_constant,
                         maximal_operator_constant, reference_normalization,
                         unweighted_reference)
from .oracle import (OracleConfig, OracleResult, best_constant_lower_bound,
                     closed_form_constant, divergence_witness,
                     equivalence_report)

__version__ = "0.1.0"
