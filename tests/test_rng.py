import numpy as np
import pytest

from maxnorm_lowrank.rng import seed_sequence, split


def test_seed_sequence_is_copied_with_its_state():
    parent = np.random.SeedSequence(11, pool_size=8)
    parent.spawn(3)
    child = parent.spawn(1)[0]
    for given in (parent, child):
        copy = seed_sequence(given)
        assert copy is not given
        assert (copy.entropy, copy.spawn_key, copy.pool_size, copy.n_children_spawned) == (
            given.entropy, given.spawn_key, given.pool_size, given.n_children_spawned,
        )
        assert (copy.generate_state(4) == given.generate_state(4)).all()


def test_split_leaves_the_callers_sequence_alone():
    ss = np.random.SeedSequence(5)
    first, again = split(ss, 2), split(ss, 2)
    assert ss.n_children_spawned == 0
    assert [c.spawn_key for c in first] == [c.spawn_key for c in again] == [(0,), (1,)]
    # the children are the ones the first spawn of the caller's object would give
    assert [c.spawn_key for c in ss.spawn(2)] == [(0,), (1,)]


def test_negative_seed_is_refused_by_name():
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        seed_sequence(-3)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        split(np.int64(-1), 2)
    assert seed_sequence(0).entropy == 0
