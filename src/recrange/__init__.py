"""Bayesian estimation of an exponential scale from upper record ranges.

The package turns an observed series into its upper records, forms the
conjugate inverted-gamma posterior of the scale from the record range, and
offers point estimators, equal-tails / exact HPD / closed-form approximate
credible intervals, risk analysis of linear rules, and seeded Monte Carlo
experiments. The ``recrange`` command exposes the same operations from the
shell.
"""

from ._meta import TOOL_VERSION as __version__
from . import datasets, errors, specfun, records, model
from . import estimators, intervals, risk, sim
from .errors import *
from .specfun import *
from .records import *
from .model import *
from .estimators import *
from .intervals import *
from .risk import *
from .sim import *

__all__ = ["__version__", "datasets"]
__all__ += errors.__all__
__all__ += specfun.__all__
__all__ += records.__all__
__all__ += model.__all__
__all__ += estimators.__all__
__all__ += intervals.__all__
__all__ += risk.__all__
__all__ += sim.__all__
