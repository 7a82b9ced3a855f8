"""Exact de Finetti reductions for partially exchangeable distributions."""

from .core import (
    Alphabet,
    ConditionalDistribution,
    FiniteDistribution,
    Word,
    dirac,
    marginal,
    tensor_power,
    uniform,
)
from .intervals import IntervalScalar
from .relations import (
    EXCHANGEABLE,
    MARKOV,
    ClassIndex,
    Exchangeable,
    ExchangeableType,
    LMarkov,
    LMarkovType,
    Markov,
    MarkovType,
    ProductRelation,
    ProductType,
    class_members,
    class_size,
    enumerate_types,
    type_of,
)
from .reduction import (
    AlphaBound,
    ReductionCertificate,
    alpha_analytic,
    alpha_tight,
    decompose,
    stirling_bounds,
    uniform_class_dist,
    verify_flexible_reduction,
)

__version__ = "0.1.0"

from .conditional import (
    ConditionalCertificate,
    condition,
    lift_conditional,
    marginal_type,
    markov_marginal_counterexample,
    verify_conditional_reduction,
)
from .games import (
    Game,
    SequentialKernel,
    Strategy,
    chsh_game,
    classical_value,
    definetti_upper_bound,
    parallel_game,
    sequential_game,
    winning_probability,
)
from .mp import LambdaMatrix, beta_bound, dirichlet_moment, lambda_matrix, mp_of_extreme
