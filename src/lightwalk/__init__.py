"""Coherent atomic walking in traveling light, and purification planning on top of it."""

from .catalog import (
    CATALOG_HEADER,
    Catalog,
    Species,
    embedded_table1,
    load_catalog,
    parse_catalog,
    serialize_catalog,
)
from .constants import (
    CONSTANT_SETS,
    HBAR,
    H_PLANCK,
    U_CODATA,
    U_ROUNDED,
    mass_to_si,
    wavenumber,
)
from .dynamics import (
    LightField,
    MomentumGrid,
    Trajectory,
    WavepacketSpec,
    bare_frequencies,
    block_detuning,
    closed_form_displacement,
    closed_form_velocity,
    dressed_frequencies,
    propagate,
    simulate,
)
from .errors import CatalogError, DomainError
from .oracle import evolve_block_numeric, rk4_propagate
from .planner import (
    SeparationReport,
    average_speed,
    pairwise_gap,
    separation_report,
    speed_table,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG_HEADER",
    "CONSTANT_SETS",
    "Catalog",
    "CatalogError",
    "DomainError",
    "HBAR",
    "H_PLANCK",
    "LightField",
    "MomentumGrid",
    "SeparationReport",
    "Species",
    "Trajectory",
    "U_CODATA",
    "U_ROUNDED",
    "WavepacketSpec",
    "average_speed",
    "bare_frequencies",
    "block_detuning",
    "closed_form_displacement",
    "closed_form_velocity",
    "dressed_frequencies",
    "embedded_table1",
    "evolve_block_numeric",
    "load_catalog",
    "mass_to_si",
    "pairwise_gap",
    "parse_catalog",
    "propagate",
    "rk4_propagate",
    "separation_report",
    "serialize_catalog",
    "simulate",
    "speed_table",
    "wavenumber",
]
