"""Numerics for electrostatic point-charge fields under the Born-Infeld model.

Modules by role: ``core`` (types, expansion coefficients, closed-form
constants), ``quad`` (batched quadrature, exact single-charge field),
``conditions`` (solvability certificates), ``radial`` (order-m radial
solver, singularity fits, cone-plus-tail extremals), ``field`` (grid solver
and property reports), ``cli`` (command-line front end).  The package
re-exports the ``__all__`` of ``core``, ``quad``, ``conditions`` and
``radial``.  ``field`` loads on first use of it or of one of its names
here, so only a grid solve pays for importing it.
"""

from .core import *
from .quad import *
from .conditions import *
from .radial import *

# ``field``'s names here, resolved on first use (PEP 562)
_FIELD_NAMES = (
    "DiscreteProblem", "GridField", "assemble_problem", "compare_solutions",
    "extremum_report", "gradient_sup", "minimize_energy", "segment_report",
)


def __getattr__(name: str):
    if name == "field" or name in _FIELD_NAMES:
        import importlib

        field = importlib.import_module(".field", __name__)
        return field if name == "field" else getattr(field, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
# ``from borninfeld import *`` binds every public name, the grid solver's too
__all__ = [name for name in globals() if not name.startswith("_")] + ["field", *_FIELD_NAMES]
