"""Matrix graph grammars over Boolean adjacency matrices.

Simple digraphs and rewriting rules are Boolean matrices and vectors;
rules carry an explicit forbidden-edge (nihilation) matrix, encode into
complex terms and dyadic rationals, and whole rule sequences admit exact
coherence, initial-digraph, image, compatibility and congruence analyses,
each validated by brute-force oracles at small sizes.
"""

from .boolmat import (
    BoolMatrix,
    BoolVector,
    Digraph,
    NodeUniverse,
    UniverseMismatchError,
    bounded_one,
    complement,
    complete_to,
    contains,
    is_compatible,
)
from .derivation import (
    DerivationError,
    DerivationStep,
    DerivationTrace,
    Match,
    MatchError,
    apply_at,
    derive,
    derive_all,
    find_matches,
    host_complement,
)
from .encoding import (
    Bitmap,
    Dyadic,
    DyadicComplex,
    conditional_norm,
    distance,
    ell,
    ell_complex,
    gasket_raster,
    h_points,
    norm,
)
from .grammar import GrammarError, GrammarFile, parse_grammar, serialize_grammar
from .mcl import (
    ComplexTerm,
    align_terms,
    cadd,
    cmul,
    conj,
    dot,
    equivalent,
    is_orthogonal,
    is_self_adjoint,
    nil_term,
    pmma_normalize,
)
from .oracle import (
    applies_at_identity,
    brute_matches,
    census_bruteforce,
    delta,
    minimal_hosts,
    nabla,
    pascal_mod2,
    random_digraph,
    random_production,
    random_sequence,
)
from .production import (
    CensusTable,
    Production,
    Swap,
    apply_production,
    apply_swap,
    p_operator,
    swap_census,
)
from .sequence import (
    AnalysisReport,
    IncoherentSequenceWarning,
    RuleSequence,
    coherence,
    g_congruence,
    image_of_sequence,
    initial_digraph,
    rewrite_term,
    sequence_compatibility,
    sequential_independence,
    stepwise_image,
    t_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
