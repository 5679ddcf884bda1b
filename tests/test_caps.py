import pytest

from maxnorm_lowrank import caps


def test_default_cap(monkeypatch):
    monkeypatch.delenv("MAXNORM_DENSE_CAP", raising=False)
    assert caps.dense_cap() == caps.DENSE_CAP == 2**24


def test_environment_overrides_the_cap(monkeypatch):
    monkeypatch.setenv("MAXNORM_DENSE_CAP", "1000")
    assert caps.dense_cap() == 1000


@pytest.mark.parametrize("raw", ["0", "-1", "abc", "1e6"])
def test_bad_cap_names_the_variable(raw, monkeypatch):
    monkeypatch.setenv("MAXNORM_DENSE_CAP", raw)
    with pytest.raises(ValueError, match=f"MAXNORM_DENSE_CAP must be a positive integer, "
                                         f"got '{raw}'"):
        caps.dense_cap()


def test_matrix_at_the_cap_passes_and_one_entry_more_is_refused(monkeypatch):
    monkeypatch.setenv("MAXNORM_DENSE_CAP", "120")
    caps.require_dense_matrix(10, 12)
    with pytest.raises(caps.DenseCapExceeded, match="dense 11 x 11 matrix exceeds cap 120"):
        caps.require_dense_matrix(11, 11)
