import numpy as np
import pytest

from maxnorm_lowrank import matio


def test_round_trip(tmp_path):
    M = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
    path = tmp_path / "m.bin"
    matio.save_matrix(path, M)
    assert path.stat().st_size == 16 + 12 * 8
    assert path.read_bytes()[:16] == (3).to_bytes(8, "little") + (4).to_bytes(8, "little")
    back = matio.load_matrix(path)
    assert back.dtype == np.float64 and back.flags.writeable
    np.testing.assert_array_equal(back, M)


def test_empty_matrix(tmp_path):
    path = tmp_path / "e.bin"
    matio.save_matrix(path, np.zeros((0, 5)))
    assert matio.load_matrix(path).shape == (0, 5)


def test_rejects_non_matrix(tmp_path):
    with pytest.raises(ValueError, match="expected a matrix"):
        matio.save_matrix(tmp_path / "v.bin", np.zeros(3))


def test_truncated_header(tmp_path):
    path = tmp_path / "h.bin"
    path.write_bytes(b"\x02" * 10)
    with pytest.raises(ValueError, match="truncated header"):
        matio.load_matrix(path)


def test_truncated_body(tmp_path):
    path = tmp_path / "b.bin"
    matio.save_matrix(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="expected 6 entries"):
        matio.load_matrix(path)
