"""Precoder codebook design and link simulation for partly orthogonal
space-time codes driven by noisy quantized feedback."""

# The package republishes each library layer's `__all__`, and nothing else.
from podsim import channel, codebook, feedback, link, pep, stbc, trainer
from podsim.channel import *
from podsim.codebook import *
from podsim.feedback import *
from podsim.link import *
from podsim.pep import *
from podsim.stbc import *
from podsim.trainer import *

__all__ = sorted(
    name for layer in (channel, codebook, feedback, link, pep, stbc, trainer)
    for name in layer.__all__
)

__version__ = "0.1.0"
