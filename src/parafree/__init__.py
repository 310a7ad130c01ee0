"""Exact-arithmetic certificates of non-freeness for the group and
semigroup generated by (1 1; 0 1) and (1 0; tau 1)."""

from .exact import (
    ExpWord,
    G,
    H,
    Mat2,
    UniPoly,
    eval_word,
    eval_word_symbolic,
    format_rational,
    gen_power,
    parse_rational,
)
from .families import (
    AccumulationTarget,
    FamilyInstance,
    accumulation_report,
    accumulation_target,
    enumerate_n_values,
    family_instance,
    family_lookup,
    family_n,
    family_tau,
    fib,
    instance_witness,
    markov_poly,
    pell,
    u_seq,
)
from .freeness import SearchEffort, TauClassification, classify_tau
from .halfrel import (
    RelationKind,
    RelationWitness,
    build_relation,
    build_semigroup_witness,
    classify_signs,
    defect,
    is_half_relation,
    negate,
    poly_hr,
    relation_words,
    relator,
)
from .search import (
    SearchQuery,
    SearchReport,
    SignMode,
    search_half_relations,
    search_len4_positive,
)

__all__ = [
    "AccumulationTarget", "ExpWord", "FamilyInstance", "G", "H", "Mat2",
    "RelationKind", "RelationWitness", "SearchEffort", "SearchQuery",
    "SearchReport", "SignMode", "TauClassification", "UniPoly",
    "accumulation_report", "accumulation_target", "build_relation",
    "build_semigroup_witness", "classify_signs", "classify_tau", "defect",
    "enumerate_n_values", "eval_word", "eval_word_symbolic", "family_instance",
    "family_lookup", "family_n", "family_tau", "fib", "format_rational",
    "gen_power", "instance_witness", "is_half_relation", "markov_poly",
    "negate", "parse_rational", "pell", "poly_hr", "relation_words",
    "relator", "search_half_relations", "search_len4_positive", "u_seq",
]
