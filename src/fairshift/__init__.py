"""Fair measures on countable Markov shifts and their interval models.

The measure that splits mass evenly over the preimages of every set —
each backward step chooses uniformly among the predecessors — is the
organizing object of this package.  ``chain`` holds the symbolic
transition rule sets and backward kernels, ``measure`` the stationary
solver and fairness checks, ``recurrence`` the positive/null/transient
classification, ``simulate`` backward trajectory statistics,
``interval`` Markov interval maps and their Lebesgue fair models,
``graph`` the cut-and-paste reduction of tame graph maps, and ``cli``
the command-line front end.
"""

from .chain import (Abs, AbsRay, BackwardKernel, InfinitePreimages, Rel,
                    RelRay, SchemaError, TransitionRuleSet,
                    UnresolvableState, build_backward_kernel,
                    check_irreducible, strongly_connected_components)
from .families import (CHAIN_FAMILIES, biased_walk, chain_by_name,
                       factorial_chain, factorial_stationary, five_three_chain,
                       five_three_profile, full_shift, full_shift_stationary,
                       origin_broadcast, origin_broadcast_stationary,
                       unbiased_walk)
from .graph import (CutAndPasteModel, TameGraphMapSpec, cut_and_paste,
                    dendrite_example, refined_transition_matrix)
from .io import (ParseError, chain_from_dict, chain_to_dict, dump_json,
                 graph_from_dict, graph_to_dict, interval_map_from_dict,
                 interval_map_to_dict, load_json, load_spec, write_csv,
                 write_json)
from .interval import (Branch, Enclosure, FinitePartition,
                       GeometricPartition, HitsPartitionPoint,
                       InadmissibleWord, IntegerPartition,
                       MarkovIntervalMap, NotMarkov, Piece, PiecewiseAffineMap,
                       check_lebesgue_fair, cylinder_interval, five_three_map,
                       itinerary, lebesgue_fair_model, merged_segments,
                       point_from_itinerary, rohlin_entropy, staircase_map,
                       tent_map, transition_matrix)
from .measure import (AtomicOrbit, FairMeasure, ForwardMatrix,
                      NoSummableSolution, SingularWindow, StationaryVector,
                      WindowExhausted, build_forward_matrix,
                      check_fair_on_cylinders, cylinder_measure,
                      entropy_tail_estimate, fair_entropy, fair_measure_from,
                      find_atomic_fair_measures, integral_log_c,
                      solve_stationary, verify_stationary)
from .recurrence import (Classification, ClassifyPolicy, ReturnEstimate,
                         SeriesResult, WindowInsufficient, classify,
                         monte_carlo_return, series_test)
from .simulate import (BackwardPath, GeoMeanReport, PathStats,
                       equidistribution_report, equidistribution_test,
                       geo_mean_convergence, geo_mean_series,
                       geo_mean_target, path_statistics, sample_backward,
                       sample_paths)

__version__ = "1.0.0"
