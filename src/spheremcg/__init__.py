"""Verified computations in mapping class groups of punctured spheres."""

from .action import (
    FreeAut,
    ResourceLimitError,
    equal_in_group,
    equal_with_witness,
    is_inner,
    order_of,
    word_to_aut,
)
from .coset import CosetTable, EnumerationResult, EnumerationStats, enumerate_cosets
from .harness import VERSION as __version__
from .harness import CheckResult, Limits, Report, full_report
from .homs import (
    abelianization_image,
    format_gf2,
    format_mat2,
    format_perm,
    gf2_rank,
    perm_image,
    pgl2_image,
    span_gf2,
    validate_hom,
)
from .presentation import (
    Presentation,
    build_presentation,
    format_presentation,
    named_word,
    parse_expression,
)
from .words import (
    EPSILON,
    ParseError,
    T_LETTER,
    Word,
    concat,
    cyclic_reduce,
    format_word,
    invert,
    parse_word,
    power,
    reduce,
)
