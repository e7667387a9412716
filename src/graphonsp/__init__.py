"""Graphon signal processing: kernel random graphs, the Fourier-Galerkin
shift operator, Fredholm solves, and polynomial graphon filter design."""

from .kernels import (Graphon, empirical_graphon, erdos_renyi, exp_distance,
                      exp_sum, grid_graphon, l2_distance, sin_product)
from .sampling import Graph, apply_shift, sample_graph, scaled_adjacency
from .steps import (StepSignal, apply_empirical_operator, lift,
                    step_operator_matrix, unlift)
from .chebyshev import (ChebCoeffVector, QuadratureRule, cheb_eval,
                        map_domain_inverse, project_signal, quad_integrate,
                        resample)
from .galerkin import (OperatorMatrix, build_fg_shift, compute_tilde_w,
                       fredholm_solve, resolvent_eigs)
from .filtering import (DesignResult, FilterCoeffs, IdealResponse,
                        apply_graph_filter, design_filter, fg_filter_operator,
                        filter_pipeline, frequency_response,
                        truncated_svd_pinv)
from .homdensity import (Motif, edge_motif, hom_count, hom_density_graph,
                         hom_density_graphon, path3_motif, triangle_motif)
from .experiments import (ExperimentConfig, ExperimentRecord, run_consensus,
                          run_filter_convergence, run_lowpass)

__version__ = "0.1.0"
