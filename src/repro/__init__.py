"""repro — distributed MaxIS approximation (Kawarabayashi–Khoury–Schild–
Schwartzman, PODC 2020) on an executable CONGEST/LOCAL simulator.

Quickstart — the blessed entry point is :func:`repro.solve`::

    from repro import gnp, uniform_weights, solve

    graph = uniform_weights(gnp(500, 0.02, seed=1), 1, 100, seed=2)
    report = solve(graph, "thm2", seed=3, eps=0.5)
    print(report.size, report.rounds, report.weight)

The same request served over HTTP (``repro serve``) returns the same
canonical report, byte for byte.  Algorithm pipelines remain importable
directly (``theorem2_maxis`` et al.) for callers that want the raw
:class:`~repro.results.AlgorithmResult`.

Package map:

* :mod:`repro.simulator` — the CONGEST/LOCAL round simulator;
* :mod:`repro.graphs` — graphs, generators, arboricity;
* :mod:`repro.mis` — MIS black boxes (Luby, Ghaffari, deterministic);
* :mod:`repro.core` — the paper's algorithms (Theorems 1, 2, 3, 5, 8, 9,
  10, 12) plus baselines, an exact solver, and verification;
* :mod:`repro.lowerbound` — the Theorem 4 reduction (Figure 1);
* :mod:`repro.analysis` — concentration bounds and trial statistics;
* :mod:`repro.bench` — the E1–E13 experiment suite, the perf gate, and
  the service's open-loop load client;
* :mod:`repro.api` — the stable solve/report contract (schema v2);
* :mod:`repro.service` — the solver daemon behind ``repro serve``.
"""

from repro._version import __version__
from repro.results import AlgorithmResult

# The blessed public surface: one call, one versioned contract, shared
# verbatim by the Python facade and the HTTP service.
from repro.api import (
    SolveReport,
    SolveRequest,
    solve,
    sweep,
)
from repro.registry import algorithm_registry

# Re-export the most used surface at the top level.
from repro.graphs import (
    WeightedGraph,
    cycle,
    cycle_of_cliques,
    gnp,
    grid_2d,
    integer_weights,
    random_regular,
    random_tree,
    uniform_weights,
    unit_weights,
)
from repro.core import (
    bar_yehuda_maxis,
    boppana_is,
    certify_fraction_bound,
    certify_ratio,
    exact_max_weight_is,
    good_nodes_approx,
    greedy_maxis,
    low_arboricity_maxis,
    low_degree_maxis,
    sparsified_approx,
    theorem1_maxis,
    theorem2_maxis,
)
from repro.mis import ghaffari_mis, local_minima_mis, luby_mis
from repro.simulator import BandwidthPolicy, CommunicationModel

__all__ = [
    "__version__",
    "AlgorithmResult",
    "SolveReport",
    "SolveRequest",
    "algorithm_registry",
    "solve",
    "sweep",
    "WeightedGraph",
    "cycle",
    "cycle_of_cliques",
    "gnp",
    "grid_2d",
    "integer_weights",
    "random_regular",
    "random_tree",
    "uniform_weights",
    "unit_weights",
    "theorem1_maxis",
    "theorem2_maxis",
    "low_arboricity_maxis",
    "low_degree_maxis",
    "good_nodes_approx",
    "sparsified_approx",
    "boppana_is",
    "bar_yehuda_maxis",
    "greedy_maxis",
    "exact_max_weight_is",
    "certify_fraction_bound",
    "certify_ratio",
    "luby_mis",
    "ghaffari_mis",
    "local_minima_mis",
    "BandwidthPolicy",
    "CommunicationModel",
]
