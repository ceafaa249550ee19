"""Substream keys and the bulk per-path noise fill."""

import math

import numpy as np
import pytest

from mvsde import (
    InvalidArgumentError,
    NOISE_STREAM,
    RngKey,
    TEST_STREAM,
    TimeGrid,
    sample_noise_matrix,
)
from mvsde.rng import fill_standard_normal, philox_keys

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
PREFIXES = [(), (3,), (3, 1), (2**33,)]
IDS = [0, 1, 4095, 2**32 - 1, 2**32, 2**40]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", PREFIXES)
def test_philox_keys_match_seed_sequence(seed, stream):
    keys = philox_keys(RngKey(seed, stream), np.array(IDS, dtype=np.uint64))
    assert keys.shape == (len(IDS), 2) and keys.dtype == np.uint64
    for row, i in zip(keys, IDS):
        ref = np.random.SeedSequence(entropy=seed, spawn_key=stream + (i,))
        assert np.array_equal(row, ref.generate_state(2, np.uint64)), (seed, stream, i)


def test_philox_keys_accept_signed_and_unsigned_ids():
    key = RngKey(7, (NOISE_STREAM,))
    signed = philox_keys(key, np.arange(5, dtype=np.int64))
    assert np.array_equal(signed, philox_keys(key, np.arange(5, dtype=np.uint64)))
    assert np.array_equal(signed, philox_keys(key, [0, 1, 2, 3, 4]))
    assert philox_keys(key, np.array([], dtype=np.int64)).shape == (0, 2)


def test_philox_keys_reject_bad_ids():
    key = RngKey(7)
    with pytest.raises(InvalidArgumentError):
        philox_keys(key, np.array([0, -1]))
    with pytest.raises(InvalidArgumentError):
        philox_keys(key, np.array([0.0, 1.0]))
    with pytest.raises(InvalidArgumentError):
        philox_keys(key, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(InvalidArgumentError):
        philox_keys(key, [2**64])


def _reference_noise(key, grid, width, n_paths, first_index=0):
    """The per-path generator loop the bulk fill must reproduce."""
    return np.stack(
        [
            key.child(NOISE_STREAM, first_index + i)
            .generator()
            .standard_normal((grid.steps, width))
            * math.sqrt(grid.dt)
            for i in range(n_paths)
        ]
    )


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("horizon", [0.7, 1.1, 2.3])
def test_noise_matrix_matches_per_path_generators(width, horizon):
    key = RngKey(20260816, (TEST_STREAM, 21))
    grid = TimeGrid(dt=0.1, delay=0.0, horizon=horizon)
    assert grid.steps % 2 == 1
    got = sample_noise_matrix(key, grid, width, 9)
    assert np.array_equal(got, _reference_noise(key, grid, width, 9))


@pytest.mark.parametrize("first_index", [2**32 - 3, 2**32, 2**32 + 5])
def test_noise_matrix_across_the_two_word_id_boundary(first_index):
    key = RngKey(11)
    grid = TimeGrid(dt=0.1, delay=0.0, horizon=0.5)
    got = sample_noise_matrix(key, grid, 2, 6, first_index=first_index)
    assert np.array_equal(got, _reference_noise(key, grid, 2, 6, first_index))
    one = sample_noise_matrix(key, grid, 2, n_paths=1, first_index=first_index + 4)[0]
    assert np.array_equal(one, got[4])


def test_negative_path_index_is_rejected():
    grid = TimeGrid(dt=0.1, delay=0.0, horizon=1.0)
    with pytest.raises(InvalidArgumentError):
        sample_noise_matrix(RngKey(1), grid, 1, 3, first_index=-1)
    with pytest.raises(InvalidArgumentError):
        sample_noise_matrix(RngKey(1), grid, 1, n_paths=1, first_index=-2)
    with pytest.raises(InvalidArgumentError):
        sample_noise_matrix(RngKey(1), grid, 1, 3, first_index=2**64 - 2)


def test_fill_rejects_a_bad_output_array():
    key = RngKey(3)
    with pytest.raises(InvalidArgumentError):
        fill_standard_normal(key, [0, 1], np.empty((3, 4)))
    with pytest.raises(InvalidArgumentError):
        fill_standard_normal(key, [0, 1], np.empty((2, 4), dtype=np.float32))
    with pytest.raises(InvalidArgumentError):
        fill_standard_normal(key, [0, 1], np.empty((4, 2)).T)


def test_noise_golden_values():
    """Pins the noise contract: a numpy release that changes
    SeedSequence, Philox or the ziggurat sampler fails here instead of
    silently moving every recorded result."""
    grid = TimeGrid(dt=1e-3, delay=0.0, horizon=1.0)
    noise = sample_noise_matrix(RngKey(20260816), grid, 1, 4096)
    golden = {
        0: ["0x1.be24e253634dap-7", "-0x1.0cbb6fa6430ffp-17", "0x1.4dd6d1b1b827fp-5"],
        4095: ["-0x1.ab50596c35244p-7", "-0x1.366410c7e1202p-6", "-0x1.004119d5e543ap-5"],
    }
    for path, values in golden.items():
        assert [float(x).hex() for x in noise[path, :3, 0]] == values
