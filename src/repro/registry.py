"""The algorithm registry: one stable catalogue of named solvers.

Every entry point that names an algorithm — ``repro.api.solve``, the
batch engine, the solver service, the CLI — resolves the name here, so
a registry name is a stable public identifier: it appears in cache
keys, sweep cells, service requests, and benchmark baselines.

Every registry entry is called with the uniform batch signature::

    fn(graph, seed=..., policy=..., **params) -> AlgorithmResult

Imports are local so that importing :mod:`repro.registry` (which the
simulator package does) never pulls in the whole algorithm stack.

.. note::
   This module is the only home of :func:`algorithm_registry`;
   ``repro.simulator.batch`` imports it under a private name and
   re-exports nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

__all__ = ["AlgorithmFn", "algorithm_registry"]

AlgorithmFn = Callable[..., Any]  # (graph, *, seed, ...) -> AlgorithmResult


def algorithm_registry() -> Dict[str, AlgorithmFn]:
    """Named algorithm wrappers with the uniform batch signature.

    Every entry is called as ``fn(graph, seed=..., policy=..., **params)``.
    Workers of the batch engine call this on their side of the process
    boundary, so entries must be resolvable by name alone.
    """
    from repro.core import (
        bar_yehuda_maxis,
        boppana_is,
        good_nodes_approx,
        low_arboricity_maxis,
        low_degree_maxis,
        sparsified_approx,
        theorem1_maxis,
        theorem2_maxis,
        weighted_greedy_maxis,
    )
    from repro.mis import ghaffari_mis, local_minima_mis, luby_mis

    def thm1(g, *, seed=None, policy=None, eps=0.5, **kw):
        return theorem1_maxis(g, eps, seed=seed, policy=policy, **kw)

    def thm2(g, *, seed=None, policy=None, eps=0.5, **kw):
        return theorem2_maxis(g, eps, seed=seed, policy=policy, **kw)

    def thm3(g, *, seed=None, policy=None, eps=0.5, **kw):
        # low_arboricity_maxis manages bandwidth internally; no policy knob.
        return low_arboricity_maxis(g, eps, seed=seed, **kw)

    def thm5(g, *, seed=None, policy=None, eps=0.5, **kw):
        return low_degree_maxis(g, eps, seed=seed, policy=policy, **kw)

    def thm8(g, *, seed=None, policy=None, **kw):
        return good_nodes_approx(g, seed=seed, policy=policy, **kw)

    def thm9(g, *, seed=None, policy=None, **kw):
        return sparsified_approx(g, seed=seed, policy=policy, **kw)

    def ranking(g, *, seed=None, policy=None, **kw):
        return boppana_is(g, seed=seed, policy=policy, **kw)

    def bar_yehuda(g, *, seed=None, policy=None, **kw):
        return bar_yehuda_maxis(g, seed=seed, policy=policy, **kw)

    def weighted_greedy(g, *, seed=None, policy=None, **kw):
        return weighted_greedy_maxis(g, seed=seed, policy=policy, **kw)

    def mis_luby(g, *, seed=None, policy=None, **kw):
        return luby_mis(g, seed=seed, **kw)

    def mis_ghaffari(g, *, seed=None, policy=None, **kw):
        return ghaffari_mis(g, seed=seed, **kw)

    def mis_det(g, *, seed=None, policy=None, **kw):
        return local_minima_mis(g, seed=seed, **kw)

    return {
        "thm1": thm1,
        "thm2": thm2,
        "thm3": thm3,
        "thm5": thm5,
        "thm8": thm8,
        "thm9": thm9,
        "ranking": ranking,
        "bar-yehuda": bar_yehuda,
        "weighted-greedy": weighted_greedy,
        "mis-luby": mis_luby,
        "mis-ghaffari": mis_ghaffari,
        "mis-det": mis_det,
    }
