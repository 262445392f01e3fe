"""Re-export of :data:`repro.graphs.specs.DEFAULT_SPECS`.

The load client itself is :mod:`repro.bench.loadgen`.
"""

# servebench/workloads.py imports DEFAULT_SPECS from here; drop this
# stub once it imports from repro.graphs.specs.
from repro.graphs.specs import DEFAULT_SPECS

__all__ = ["DEFAULT_SPECS"]
