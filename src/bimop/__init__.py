"""Bivariate multiple orthogonal polynomials from moment data.

Exact rational construction of Type I / Type II multiple orthogonal
polynomials for systems of bivariate measures, with executable checks of
their structural identities (biorthogonality, nearest-neighbour
recurrences, product construction).
"""

from .errors import (
    BadV,
    BimopError,
    ChainInvalid,
    DimensionMismatch,
    DivisionByZeroFactor,
    EmptyIndex,
    IndexOutOfRange,
    IndexTooSmall,
    NegativeAlpha,
    NotComparable,
    NotNormal,
    NotSquare,
    PathInvalid,
    SchemaError,
    Singular,
    SurplusNegative,
    TableExhausted,
    ValidationError,
)
from .linalg import Matrix, det, format_scalar, parse_scalar, solve
from .measures import (
    Jacobi,
    Laguerre,
    MeasureSystem,
    MomentTable,
    TableMeasure,
    TensorMeasure,
    UniMeasureSystem,
    parse_config,
    parse_product_config,
    parse_uni_config,
)
from .mopcore import (
    BiPoly,
    Normality,
    TypeISet,
    UniPoly,
    inner,
    is_normal,
    moment_matrix,
    normality,
    poly_to_json,
    solve_path,
    type1,
    type1_pairing,
    type2,
    uni_moment_matrix,
    uni_normality,
    uni_type1,
    uni_type2,
)
from .multiindex import (
    IndexParams,
    Path,
    canonical_path,
    pair,
    params,
    shift_x,
    shift_y,
    unpair,
    validate_chain,
)
from .product import (
    FactorCheck,
    ProductSystem,
    candidate_vs,
    det_factor_check,
    find_v,
    product_poly,
    tilde_v,
    verify_product,
)
from .relations import (
    MOPV,
    BiorthMatrixResult,
    BiorthResult,
    NNRReport,
    TypeIMOPV,
    assemble_type1_vectors,
    assemble_type2_vector,
    biorth,
    biorth_matrix,
    biorth_row,
    default_vector_chains,
    nnr_type1,
    nnr_type2,
    nnr_vector,
)

__version__ = "0.1.0"
