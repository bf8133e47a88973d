"""Multicomponent-objective smoothing for sparse, irregular time series.

The estimator fits a canonical stochastic oscillator to scattered
observations by staged gradient ascent on a weighted sum of point-wise,
distributional, model-coherence, and parameter-flex log-likelihoods. An
ultradian glucose-insulin ODE simulator is included as a synthetic data
source.
"""

from .kernels import *
from .objective import *
from .optimizer import *
from .oscillator import *
from .timeseries import *
from .ultradian import *

__version__ = "0.1.0"
