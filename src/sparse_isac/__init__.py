"""OFDM sensing with sparse time-frequency resource allocation.

Simulates the post-FFT received grid for point targets, estimates delay
(and Doppler) with zero-fill periodogram, single-target ML, and the
autocorrelation virtual-aperture method, and benchmarks everything
against the closed-form delay CRLB.  The package exports the `__all__`
names of its modules.
"""

__version__ = "0.1.0"

from . import alloc, scene, synth, estimators, analysis
from .alloc import *  # noqa: F403
from .scene import *  # noqa: F403
from .synth import *  # noqa: F403
from .estimators import *  # noqa: F403
from .analysis import *  # noqa: F403

__all__ = ["__version__"] + [
    name for module in (alloc, scene, synth, estimators, analysis) for name in module.__all__
]
