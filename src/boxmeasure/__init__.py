"""boxmeasure: exact intrinsic volumes and a lexicographically ordered
polynomial-valued measure on axis-aligned box complexes, with Monte Carlo
validation and finite-scale counting approximations."""

from .boxset import (BoxComplex, Cell, DimensionMismatch, GridTooLarge, Interval,
                     NonpositiveScale, UnboundedSet, axis_permute, bounding_box,
                     canonicalize, cartesian_product, complement, contains_point,
                     contains_points, difference, dimension, from_cell, grid_atoms,
                     intersect, is_subset, reflect, scale, set_equal, translate, union)
from .crofton import (CroftonEstimate, estimate_codim1, estimate_volume,
                      grassmannian_norm, slice_euler, slice_line,
                      unit_ball_volume)
from .dsl import ParseError, SetExpr, UnknownName, evaluate, parse, parse_defs, print_expr
from .measure import (MeasureResult, euler_characteristic, hausdorff_measure,
                      intrinsic_volume, mu, mu_cell, mu_compare, mu_interval)
from .sampler import (CellTooSmall, ConstructionViolation, RatioCheck,
                      SampleResult, SampleTooLarge, SearchExhausted, build_sample,
                      find_near_integer_N, hausdorff_ratio_check,
                      pick_points_in_cell)
from .xpoly import (IndeterminateCoefficient, InfiniteCoefficient, XPoly,
                    dist_to_nearest_integer, xpoly_add, xpoly_eval,
                    xpoly_lex_cmp, xpoly_mul)

__version__ = "0.1.0"
