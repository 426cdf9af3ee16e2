"""Binaural polyphonic sound event detection.

Spectral (log mel), harmonic (pitch/periodicity) and spatial (per-band
GCC-PHAT delay) features feed a from-scratch multi-label LSTM; detection
quality is measured with one-second segment error rate and F-score.
"""

import os

# One BLAS thread unless the caller chose otherwise: the TDOA thread pool and
# the fold processes already use every core.  This must run before numpy is
# first imported, so it sits here, ahead of every submodule.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

__version__ = "0.1.0"
