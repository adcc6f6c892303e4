"""Shared fixtures: small universes, the worked example rules, the value contract."""

import dataclasses

import pytest

from mgg import Digraph, NodeUniverse, Production, RuleSequence


@pytest.fixture(scope="session")
def u2():
    return NodeUniverse.of("a", "b")


@pytest.fixture(scope="session")
def u3():
    return NodeUniverse.of("a", "b", "c")


@pytest.fixture(scope="session")
def value_contract():
    """A check that a value keeps the frozen dataclass contract with slots and no ``__dict__``.

    It is equal to the value its fields build by position and by keyword, hashes and
    prints as its field values, is rebuilt by ``dataclasses.replace``, and refuses
    every assignment and deletion of a field.
    """

    def check(x):
        cls = type(x)
        values = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
        assert cls(**values) == x and cls(*values.values()) == x
        assert x != object()
        assert hash(x) == hash(tuple(values.values()))
        shown = ", ".join(f"{name}={value!r}" for name, value in values.items())
        assert repr(x) == f"{cls.__qualname__}({shown})"
        assert cls.__match_args__ == tuple(values)
        assert dataclasses.replace(x) == x
        for name, value in values.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        assert not hasattr(x, "__dict__")

    return check


def rule(universe, name, lhs_nodes, lhs_edges, rhs_nodes, rhs_edges):
    return Production.from_static(
        name,
        Digraph.of(universe, lhs_nodes, lhs_edges),
        Digraph.of(universe, rhs_nodes, rhs_edges),
    )


@pytest.fixture(scope="session")
def retire(u3):
    """Drops node c with its stray links, rewires b back to a."""
    return rule(
        u3,
        "retire",
        "abc",
        [("a", "a"), ("a", "b"), ("c", "a"), ("c", "b")],
        "ab",
        [("a", "a"), ("b", "a")],
    )


@pytest.fixture(scope="session")
def recruit(u3):
    """Brings node c back, fanning out fresh edges from a and b."""
    return rule(
        u3,
        "recruit",
        "ab",
        [("b", "a"), ("b", "b")],
        "abc",
        [("b", "a"), ("b", "b"), ("a", "b"), ("a", "c"), ("b", "c")],
    )


@pytest.fixture(scope="session")
def handover(retire, recruit):
    return RuleSequence.of(retire, recruit)


@pytest.fixture(scope="session")
def fanout(u3):
    """Consumes the c self-loop and adds the triangle fan."""
    return rule(
        u3,
        "fanout",
        "abc",
        [("c", "c")],
        "abc",
        [("a", "b"), ("a", "c"), ("b", "c")],
    )


@pytest.fixture(scope="session")
def cut(u3):
    """Deletes node a and its edge to b, then links b to c."""
    return rule(
        u3,
        "cut",
        "abc",
        [("a", "b"), ("c", "c")],
        "bc",
        [("b", "c"), ("c", "c")],
    )


@pytest.fixture(scope="session")
def clash(fanout, cut):
    """Two-rule sequence with known coherence defects."""
    return RuleSequence.of(fanout, cut)
