"""Prolate spheroidal wave functions: spectra, eigenvalue decay, and bounds.

The package computes the eigenvalues chi_n of the prolate differential
operator and lambda_n / mu_n of the associated bandlimited integral
operators, carries the deep decay tail in log-scaled arithmetic, and
evaluates every explicit upper bound on |lambda_n| together with the
hypothesis checks that make those bounds rigorous.
"""

from .bounds import (BoundReport, HypothesisViolated, aux_f, aux_G, aux_H,
                     bound_report, chi_lower, chi_upper, delta_of_n, eta, k0,
                     lambda_chi_bound, nu, p0, report_delta, xi, xi_threshold,
                     xi_value, zeta, zeta_hypothesis)
from .eigenvalues import (EigenvalueRecord, MatchFailure, OracleUnreliable,
                          ResolutionLoss, count_above, eigenvalue_record,
                          lambda_direct, lambda_log, lambda_odd,
                          lambda_quadrature, mu)
from .elliptic import (complete_E, complete_F, complete_F_minus_E,
                       exponent_term)
from .legendre import QuadratureRule, gauss_legendre
from .logscale import LogScaledReal, signed_log_sum
from .sequences import (SequenceTrace, g_n_value, lambda_gamma_bound,
                        product_lower_bound, trace)
from .spectrum import (MatrixBand, ProlateContext, ProlateMode,
                       TruncationNotConverged, build_matrix, chi, mode,
                       psi_value)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "EigenvalueRecord", "HypothesisViolated", "LogScaledReal",
    "MatchFailure", "MatrixBand", "OracleUnreliable", "ProlateContext",
    "ProlateMode", "QuadratureRule", "ResolutionLoss", "SequenceTrace",
    "TruncationNotConverged", "aux_f", "aux_G", "aux_H", "bound_report",
    "build_matrix", "chi", "chi_lower", "chi_upper", "complete_E",
    "complete_F", "complete_F_minus_E", "count_above", "delta_of_n",
    "eigenvalue_record", "eta", "exponent_term", "g_n_value",
    "gauss_legendre", "k0", "lambda_chi_bound", "lambda_direct",
    "lambda_gamma_bound", "lambda_log", "lambda_odd", "lambda_quadrature",
    "mode", "mu", "nu", "p0", "product_lower_bound", "psi_value",
    "report_delta", "signed_log_sum", "trace", "xi", "xi_threshold",
    "xi_value", "zeta", "zeta_hypothesis",
]
