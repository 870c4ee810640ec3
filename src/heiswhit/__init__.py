"""Horizontal curve interpolation in the first Heisenberg group.

Sampled curves are checked for compatibility with a horizontal C^m
interpolant, the interpolant is synthesized when compatible, and the
finite-subset constants behind the guarantee are measured.
"""

from .av import AVPair, av_pair, discrete_av_pair
from .divdiff import SampledCurve
from .errors import HeisWhitError
from .heis import CurveJets, HPoint, dilate, group_mul, horizontality_defect, inverse
from .horizontal import (
    FinitenessReport,
    HorizontalCurve,
    Verdict,
    check_c1,
    check_cm,
    check_cm_via_w,
    finiteness_check,
    synthesize,
)
from .poly import Poly
from .profiles import Profile, ThresholdPolicy
from .whitney import (
    ModulusFn,
    PiecewiseCm,
    WhitneyField,
    extend,
    transition_poly,
    validate_field,
)

__version__ = "0.1.0"

__all__ = [
    "AVPair",
    "CurveJets",
    "FinitenessReport",
    "HPoint",
    "HeisWhitError",
    "HorizontalCurve",
    "ModulusFn",
    "PiecewiseCm",
    "Poly",
    "Profile",
    "SampledCurve",
    "ThresholdPolicy",
    "Verdict",
    "WhitneyField",
    "av_pair",
    "check_c1",
    "check_cm",
    "check_cm_via_w",
    "dilate",
    "discrete_av_pair",
    "extend",
    "finiteness_check",
    "group_mul",
    "horizontality_defect",
    "inverse",
    "synthesize",
    "transition_poly",
    "validate_field",
]
