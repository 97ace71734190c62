"""horolab: simulation laboratory for horoball processes and low-cost
graphings on products of finitely generated groups."""

__version__ = "0.1.0"

import os

# horolab calls no BLAS routine, so numpy's bundled OpenBLAS needs no thread
# pool of its own; set before numpy is first imported, and a user's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .groups import GroupSpec, ball, growth_series, make_oracle  # noqa: E402, F401
from .product import ProductMetric, ProductSpace, perfect_diamond  # noqa: E402, F401
from .schedule import build_schedule, linear_schedule  # noqa: E402, F401
