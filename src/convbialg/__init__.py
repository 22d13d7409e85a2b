"""Symbolic convolution bialgebra of a Lie groupoid and its distributional
representation, exact over the rationals on three desk-scale models."""

from .coeffs import Chart, CoeffFn, Polynomial, Q, Region
from .conv import (
    ConvElement,
    ConvTensor,
    Stratification,
    Stratum,
    antipode_etale,
    conv_coproduct,
    conv_counit,
    conv_eq,
    conv_is_zero,
    conv_mul,
    eval_germ,
    stratify,
)
from .adjoint import ad_matrix, ad_uea
from .dist import (
    TransvDist,
    commuting_square_gap,
    commuting_square_gap_numeric,
    dist_eval_at,
    dist_mul,
    dist_mul_defcheck,
    omega_apply,
)
from .errors import (
    ChartMismatch,
    DomainError,
    NotEtaleElement,
    ParentMismatch,
    ParseError,
    UnsupportedComposition,
    UnsupportedProduct,
    UnsupportedRegistry,
    VerificationFailed,
)
from .groupoid import (
    AffineMap,
    Bisection,
    Diffeo1D,
    EtaleActionModel,
    GermArrow,
    GroupModel,
    GroupoidModel,
    PairModel,
    bisection_germ_eq,
    bisection_inv,
    bisection_mul,
    germ_of,
    unit_bisection,
)
from .lie_rinehart import (
    LieRinehart,
    Section,
    algebroid_of_groupoid,
    anchor_apply,
    bracket,
    check_axioms,
    heisenberg_algebra,
    rank_zero_algebroid,
    tangent_line_algebroid,
)
from .models import (
    builtin_models,
    etale_model,
    heisenberg_model,
    model_from_json,
    model_to_json,
    pair_model,
)
from .phi import dist_is_zero, kernel_test, phi
from .suites import SUITES, run_all, run_suite
from .textform import parse_conv, parse_dist, parse_uea, split_top
from .uea import (
    GermUEA,
    TensorElement,
    UEAElement,
    anchor_rep,
    coproduct,
    counit,
    uea_mul,
)

__version__ = "0.1.0"
