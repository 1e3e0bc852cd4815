"""Exact flip distances for triangulations of polygonal regions and point
sets, plus a vertex-cover hardness instance generator with machine-checked
gadget properties."""

from .errors import (CapExceededError, DomainMismatchError,
                     EmptyFeasibleRegionError, EmptyRegionError, FlipdistError,
                     IllegalScriptError, InfeasibleSagError,
                     InvalidOuterFaceError, Not3ConnectedError, NotACoverError,
                     NotPlanarError, SharpVertexError, ValidationError)
from .geometry import (CCW, COLLINEAR, CW, ConvexRegion, HalfPlane, Point2,
                       coord_bits, interior_point, orientation, pt)
from .triangulation import (FlipMove, PointSet, PolygonalRegion, Triangulation,
                            edge, validate)
from .search import (FlipScript, SearchResult, count_polygon_triangulations,
                     enumerate_flip_graph, exact_distance, lower_bound)
from .gadgets import (Channel, Mouths, build_channel, build_vertex_gadget,
                      blocking_set, capped_transform_moves, channel_mouths,
                      channel_region, channel_triangulations,
                      left_to_canonical_moves, right_to_canonical_moves)
from .vertexcover import Graph, brute_force_vc, exact_vc, is_cover
from .reduction import (AccountingReport, PlanarGraphDrawing, ReductionInstance,
                        audit_script, build_instance, convex_drawing,
                        cover_to_script, drawing_from_coords, eliminate_sharp,
                        region_to_pointset)

__version__ = "0.1.0"
