"""The block budget: each TDOA task runs its frames in blocks whose spectra
stay within the worker's share of ``tdoa._BLOCK_BINS``, and the delays do
not depend on the blocks."""

import numpy as np
import pytest

from binsed import parallel, tdoa
from binsed.tdoa import TdoaConfig, extract_tdoa
from test_tdoa import _delayed_noise_clip, _regression_clips


@pytest.fixture
def rfft_rows(monkeypatch):
    """(rows, fft_size) of every ``np.fft.rfft`` call, as tdoa makes them."""
    calls = []
    rfft = np.fft.rfft

    def spy(segments, n=None, **kwargs):
        calls.append((segments.shape[0], n))
        return rfft(segments, n=n, **kwargs)

    monkeypatch.setattr(tdoa.np.fft, "rfft", spy)
    return calls


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_every_transform_is_within_the_block_budget(rfft_rows, monkeypatch,
                                                    cpus):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    frames = extract_tdoa(_delayed_noise_clip(+2, seconds=12.0),
                          "tdoa3").frame_count
    windows = len(TdoaConfig().window_lengths_ms)
    # Both channels of every frame of every window, and nothing else.
    assert sum(rows for rows, _ in rfft_rows) == 2 * windows * frames
    for rows, fft_size in rfft_rows:
        assert rows * fft_size <= tdoa._BLOCK_BINS // cpus


@pytest.mark.parametrize("name,clip", list(_regression_clips()))
@pytest.mark.parametrize("cpus", [1, 2])
def test_delays_do_not_depend_on_the_blocks(name, clip, cpus, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    want = extract_tdoa(clip, "tdoa3").values
    # 2 ** 12 bins puts every frame of the longer windows in a block alone.
    monkeypatch.setattr(tdoa, "_BLOCK_BINS", 2 ** 12)
    assert np.array_equal(extract_tdoa(clip, "tdoa3").values, want)
