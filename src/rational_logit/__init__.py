"""Heavy-tailed (kappa-exponential) logit dynamics on [0, 1]."""

from .kexp import *
from .measures import *
from .utility import *
from .dynamics import *
from .calibration import *
from .dataio import *

__version__ = "0.1.0"
