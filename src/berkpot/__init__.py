"""Canonical potentials and equilibrium measures on the Berkovich projective
line, fiberwise over hybrid base spectra, with degeneration sweeps."""

from .places import Place, PlaceError, flow_place
from .points import (
    GAUSS,
    BerkPoint,
    MetricGraph,
    build_skeleton,
    classical,
    disk,
    eval_log_abs,
    flow_point,
    infinity,
    retract,
)
from .graphs import PLFunction, GraphMeasure, dirichlet_extend, graph_laplacian, mass_in
from .rmaps import HomogeneousLift, preimages_arch, apply_point
from .green import contraction_ratios, lambda_limit, lambda_n
from .measures import (
    ArchMeasure,
    Measure,
    energy_pairing,
    equilibrium_arch,
    equilibrium_nonarch,
    integrate,
    pullback_measure,
    pushforward_measure,
)
from .affable import AffableFn, affable_combine, affable_eval, mass_bound, restrict_to_skeleton
from .battery import load_battery, standard_battery
from .sweeps import SweepConfig, default_grid, sweep_chi, sweep_equilibrium

__version__ = "0.1.0"
