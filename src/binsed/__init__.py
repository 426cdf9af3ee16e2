"""Binaural polyphonic sound event detection.

Spectral (log mel), harmonic (pitch/periodicity) and spatial (per-band
GCC-PHAT delay) features feed a from-scratch multi-label LSTM; detection
quality is measured with one-second segment error rate and F-score.
"""

__version__ = "0.1.0"
