"""Shared hypothesis profile: property tests are reproducible and untimed.

Derandomized examples with no example database mean every run draws the
same inputs, so a failure reproduces and a pass does not depend on the
machine's history; ``deadline=None`` because single examples (a quadrature,
a CLI call) legitimately take tens of milliseconds.  Tests state only their
``max_examples``.

OpenBLAS is pinned to one thread before anything loads numpy: the grid
solver's dense sine-matrix products otherwise run on every core, and a core
shared with another busy process stalls them (on two cores next to one busy
process, criterion 7's property suite took 8.3-8.7 s with two threads and
2.5-3.2 s with one).  An explicit ``OPENBLAS_NUM_THREADS`` is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("borninfeld", derandomize=True, database=None, deadline=None)
settings.load_profile("borninfeld")
