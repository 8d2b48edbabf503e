"""Shared hypothesis profile: property tests are reproducible and untimed.

Derandomized examples with no example database mean every run draws the
same inputs, so a failure reproduces and a pass does not depend on the
machine's history; ``deadline=None`` because single examples (a quadrature,
a CLI call) legitimately take tens of milliseconds.  Tests state only their
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("borninfeld", derandomize=True, database=None, deadline=None)
settings.load_profile("borninfeld")
