"""Tests for deterministic named random streams."""

import pytest

from repro.sim.random_streams import RandomStream, StreamRegistry


def test_same_seed_same_name_reproduces():
    a = RandomStream(1, "net")
    b = RandomStream(1, "net")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    reg = StreamRegistry(1)
    xs = [reg.get("a").random() for _ in range(5)]
    ys = [reg.get("b").random() for _ in range(5)]
    assert xs != ys


def test_registry_returns_same_object():
    reg = StreamRegistry(0)
    assert reg.get("cpu") is reg.get("cpu")
    assert reg.names() == ["cpu"]


def test_different_seeds_differ():
    assert RandomStream(1, "x").random() != RandomStream(2, "x").random()


def test_weighted_choice_respects_zero_weights():
    stream = RandomStream(4, "wc")
    for _ in range(50):
        assert stream.weighted_choice(["a", "b"], [0.0, 1.0]) == "b"


def test_weighted_choice_validation():
    stream = RandomStream(5, "wc2")
    with pytest.raises(ValueError):
        stream.weighted_choice(["a"], [1.0, 2.0])
    with pytest.raises(ValueError):
        stream.weighted_choice(["a", "b"], [0.0, 0.0])


def test_expovariate_positive():
    stream = RandomStream(7, "exp")
    for _ in range(50):
        assert stream.expovariate(0.5) >= 0.0
