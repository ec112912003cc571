"""Exact-arithmetic toolkit for the metaplectic representations of the
modular and symplectic groups over finite rings, together with their
tensor decompositions, commutant certificates, censuses, and trace
tables."""

from .cyclo import CycloElt, CycloField, field_for_level, make_field
from .cycmat import CycMat
from .weilrep import (
    WeilRep,
    gauss_sum,
    lift_genus1,
    trace_abs_sq,
)
from .decompose import (
    parity_bases,
    crt_check,
    tower_check,
    decomposition_tree,
    commutant_dimension,
    schrodinger_commutant_dimension,
    omega_family_report,
    su2_so3_labels,
    egorov_verify,
)
from .analysis import (
    char_sum,
    char_sum_multiplicativity,
    trace_table,
    kernel_check,
    semiclassical_traces,
)

__all__ = [
    "CycloElt",
    "CycloField",
    "field_for_level",
    "make_field",
    "CycMat",
    "WeilRep",
    "gauss_sum",
    "lift_genus1",
    "trace_abs_sq",
    "parity_bases",
    "crt_check",
    "tower_check",
    "decomposition_tree",
    "commutant_dimension",
    "schrodinger_commutant_dimension",
    "omega_family_report",
    "su2_so3_labels",
    "egorov_verify",
    "char_sum",
    "char_sum_multiplicativity",
    "trace_table",
    "kernel_check",
    "semiclassical_traces",
]

__version__ = "0.1.0"
