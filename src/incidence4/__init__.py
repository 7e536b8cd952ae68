"""Exact-arithmetic laboratory for line / 2-plane incidences in R^4.

Subpackages:

  exactpoly  -- rational scalars, sparse polynomials, restriction to
                flats, an integer univariate core (Descartes root
                isolation, mod-p certificates, subresultant gcds and
                resultants), Bezout checks
  flats      -- lines, 2-flats, hyperplanes, exact incidence outcomes
  configs    -- seeded configuration generators and JSON persistence
  partition  -- ham-sandwich partitioning polynomials, cell ids,
                exact crossing statistics
  counting   -- brute-force incidence oracle, bipartite/Zarankiewicz
                machinery, rich-flat detection
  bounds     -- certified evaluation of every closed-form bound
  cli        -- the `incidence4` command-line harness
"""

from .bounds import BoundParams, BoundResult, ConstantsProfile
from .configs import ConfigurationSet, GeneratorKind, GeneratorSpec
from .counting import IncidenceReport, count_incidences
from .flats import Flat2, Hyperplane3, Line4
from .partition import PartitionParams, PartitionPolynomial, build_partition

__all__ = [
    "BoundParams",
    "BoundResult",
    "ConfigurationSet",
    "ConstantsProfile",
    "Flat2",
    "GeneratorKind",
    "GeneratorSpec",
    "Hyperplane3",
    "IncidenceReport",
    "Line4",
    "PartitionParams",
    "PartitionPolynomial",
    "build_partition",
    "count_incidences",
]

__version__ = "0.1.0"
