"""Exact arithmetic for PBW deformations of diagonal skew group algebras."""

from .algebra import (
    AlgebraSpec,
    NCElement,
    defining_relation,
    normal_form,
    pbw_monomial_count,
)
from .colorlie import (
    Bicharacter,
    ColorLieRing,
    build_color_lie_ring,
    build_N_and_quotient,
    check_braiding_compatibility,
    check_color_axioms,
    generic_color_lie_ring,
    split_parts,
)
from .cyclotomic import CyclotomicNumber
from .errors import (
    AxiomsFailed,
    HypothesisNotMet,
    NonUnitEpsilon,
    NotPurelyPositive,
    ParseError,
    QdrinfeldError,
    SpecError,
    SymbolicParameter,
    ValueNotSign,
)
from .groups import AbelianGroup, ADegree, Character, SubgroupN
from .hopf import (
    BraidedTensorElement,
    antipode,
    braided_product,
    check_hopf_axioms,
    coproduct,
    counit,
)
from .pbw import check_pbw, check_vanishing, overlap_oracle
from .scalar import Scalar, ScalarContext, parse_scalar
from .specfile import (
    fixture_names,
    format_spec,
    load_fixture,
    parse_nc_expression,
    parse_spec_file,
    parse_spec_text,
)
from .uea import (
    build_uea,
    converse_construct,
    dimension_oracle,
    instantiate_spec,
    iso_check,
    pbw_for_uea,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "ADegree",
    "AlgebraSpec",
    "AxiomsFailed",
    "Bicharacter",
    "BraidedTensorElement",
    "Character",
    "ColorLieRing",
    "CyclotomicNumber",
    "HypothesisNotMet",
    "NCElement",
    "NonUnitEpsilon",
    "NotPurelyPositive",
    "ParseError",
    "QdrinfeldError",
    "Scalar",
    "ScalarContext",
    "SpecError",
    "SubgroupN",
    "SymbolicParameter",
    "ValueNotSign",
    "antipode",
    "braided_product",
    "build_color_lie_ring",
    "build_N_and_quotient",
    "build_uea",
    "check_braiding_compatibility",
    "check_color_axioms",
    "check_hopf_axioms",
    "check_pbw",
    "check_vanishing",
    "converse_construct",
    "coproduct",
    "counit",
    "defining_relation",
    "dimension_oracle",
    "fixture_names",
    "format_spec",
    "generic_color_lie_ring",
    "instantiate_spec",
    "iso_check",
    "load_fixture",
    "normal_form",
    "overlap_oracle",
    "parse_nc_expression",
    "parse_scalar",
    "pbw_monomial_count",
    "parse_spec_file",
    "parse_spec_text",
    "pbw_for_uea",
    "split_parts",
]
