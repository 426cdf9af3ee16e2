"""The block budget: each TDOA task runs its frames in blocks whose spectra
stay within the worker's share of ``tdoa._BLOCK_BINS``, into buffers lent
from one array per call, and the delays do not depend on the blocks."""

import numpy as np
import pytest

from binsed import parallel, tdoa
from binsed.tdoa import TdoaConfig, extract_tdoa
from test_tdoa import _delayed_noise_clip, _regression_clips


@pytest.fixture
def rfft_calls(monkeypatch):
    """(rows, fft_size, out) of every ``np.fft.rfft`` call, as tdoa makes
    them."""
    calls = []
    rfft = np.fft.rfft

    def spy(segments, n=None, out=None, **kwargs):
        calls.append((segments.shape[0], n, out))
        return rfft(segments, n=n, out=out, **kwargs)

    monkeypatch.setattr(tdoa.np.fft, "rfft", spy)
    return calls


@pytest.mark.parametrize("seconds", [3.0, 12.0])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_every_transform_writes_into_one_array_per_call(rfft_calls,
                                                        monkeypatch, cpus,
                                                        seconds):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    frames = extract_tdoa(_delayed_noise_clip(-1, seconds=seconds),
                          "tdoa3").frame_count
    assert all(out is not None and out.flags.c_contiguous
               for _, _, out in rfft_calls)
    (base,) = {id(out.base): out.base for _, _, out in rfft_calls}.values()
    # A pair of buffers per worker, each of the most bins a block holds: a
    # task's frames, or the block budget's rows if fewer.
    task = -(-frames // cpus)
    rows, fft_size = max(
        ((min(task, max(1, tdoa._BLOCK_BINS // (cpus * n))), n)
         for n in {n for _, n, _ in rfft_calls}),
        key=lambda block: block[0] * (block[1] // 2 + 1))
    workers = min(cpus, frames)
    assert base.shape == (workers, 2, rows * (fft_size // 2 + 1))
    # 16 B x _BLOCK_BINS, but for one Nyquist bin per row, whatever the CPUs.
    assert workers * rows * fft_size <= tdoa._BLOCK_BINS


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_every_transform_is_within_the_block_budget(rfft_calls, monkeypatch,
                                                    cpus):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    frames = extract_tdoa(_delayed_noise_clip(+2, seconds=12.0),
                          "tdoa3").frame_count
    windows = len(TdoaConfig().window_lengths_ms)
    # Both channels of every frame of every window, and nothing else.
    assert sum(rows for rows, _, _ in rfft_calls) == 2 * windows * frames
    for rows, fft_size, _ in rfft_calls:
        assert rows * fft_size <= tdoa._BLOCK_BINS // cpus


@pytest.mark.parametrize("name,clip", list(_regression_clips()))
@pytest.mark.parametrize("cpus", [1, 2])
def test_delays_do_not_depend_on_the_blocks(name, clip, cpus, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    want = extract_tdoa(clip, "tdoa3").values
    # 2 ** 12 bins puts every frame of the longer windows in a block alone.
    monkeypatch.setattr(tdoa, "_BLOCK_BINS", 2 ** 12)
    assert np.array_equal(extract_tdoa(clip, "tdoa3").values, want)
