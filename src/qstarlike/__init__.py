"""Numerical toolkit for multivalent q-starlike function families with
Janowski (circular-domain) targets: q-calculus primitives, truncated series
arithmetic, convolution/integral operators, membership tests, coefficient
and functional bound calculators (the coefficient bounds are attained for
B = -1, the Fekete-Szego bound everywhere; see `bounds`), and a
Schwarz-polynomial membership oracle."""

from .bounds import (
    BOUND_TOL,
    bernardi_coeff_bound,
    bernardi_coeff_bounds,
    bernardi_fekete_bound,
    coeff_bound,
    coeff_bounds,
    fekete_szego_bound,
    fekete_szego_value,
    member_majorant,
    psi,
    third_functional_bound,
    third_functional_value,
)
from .classify import (
    ZERO_TOL,
    JanowskiParams,
    MembershipVerdict,
    SamplePoleError,
    SamplingSpec,
    VerdictKind,
    boundary_sample_test,
    convolution_test,
    corollary_reduction,
    sufficiency_test,
    verdict_to_json,
)
from .operators import (
    BernardiParams,
    LambdaTable,
    apply_L,
    bernardi_factors,
    bernardi_jackson,
    bernardi_series,
    lambda_coeff,
    lambda_table,
    phi_kernel,
    q_derivative,
    ruscheweyh_classical,
)
from .oracle import (
    SchwarzPoly,
    dump_corpus,
    janowski_expand,
    lemma2_check,
    load_corpus,
    member_matrix,
    random_schwarz,
    schwarz_corpus,
    schwarz_to_member,
    subordination_roundtrip_error,
)
from .qarith import (
    LambdaConvention,
    QContext,
    q_factorial,
    q_gamma_int,
    q_number,
    q_number_real,
    q_numbers,
    q_numbers_real,
    q_pochhammer,
)
from .series import (
    NormalizedMember,
    TruncSeries,
    evaluate,
    hadamard,
    load_series,
    ratio,
    save_series,
    tail_bound,
)

__version__ = "0.1.0"
