"""Lazy timing profiles: built on first read, equal to the eager construction.

Builders pass ``Schedule`` a zero-argument callable, so a schedule whose
profile nobody reads (an analytic cell) never builds a transfer. These
tests pin that the profile a first read builds is exactly what the builder
would have built eagerly, that an unread schedule pickles, and that bad
arguments are still rejected when the schedule is built.
"""

import pickle

import pytest

from repro.collectives import hring, ring, scring, swing
from repro.collectives.base import compress_steps
from repro.collectives.registry import available_algorithms, build_schedule
from repro.core.grouping import partition_ring
from repro.core.planner import plan_wrht

NODES = (2, 3, 16, 64, 100)
ELEMS = 10_007


def _entries(profile):
    return [
        (step.pattern_key(), count, step.stage, step.level)
        for step, count in profile
    ]


STEP_BUILT = [
    ("bt", {}),
    ("rd", {}),
    ("rd", {"variant": "halving_doubling"}),
    ("wrht", {"n_wavelengths": 8}),
    ("wrht", {"n_wavelengths": 2, "m": 3}),
    ("dbtree", {}),
]


@pytest.mark.parametrize("algo,kwargs", STEP_BUILT)
@pytest.mark.parametrize("n", NODES)
def test_step_built_profile_equals_compressed_materialized_steps(algo, kwargs, n):
    lazy = build_schedule(algo, n, ELEMS, materialize=False, **kwargs)
    assert lazy.steps is None
    assert not lazy.profile_built
    eager = build_schedule(algo, n, ELEMS, materialize=True, **kwargs)
    assert _entries(lazy.timing_profile) == _entries(compress_steps(eager.steps))
    assert lazy.profile_built


def _direct_profile(algo, n, kwargs):
    """The module's own ``_profile``, called with the builder's arguments."""
    if algo == "ring":
        return ring._profile(n, ELEMS)
    if algo == "hring":
        groups = partition_ring(list(range(n)), kwargs.get("m", min(5, n)))
        return hring._profile(groups, ELEMS)
    if algo == "swing":
        p = 1 << (n.bit_length() - 1)
        return swing._profile(n, p, n - p, ELEMS)
    pipeline = kwargs.get("pipeline", 1)
    return scring._profile(n, ELEMS, scring.scring_arcs(n, pipeline))


SYNTHETIC = [
    ("ring", {}),
    ("hring", {}),
    ("hring", {"m": 2}),
    ("swing", {}),
    ("scring", {}),
    ("scring", {"pipeline": 4}),
]


@pytest.mark.parametrize("algo,kwargs", SYNTHETIC)
@pytest.mark.parametrize("n", NODES)
def test_synthetic_profile_equals_direct_profile_call(algo, kwargs, n):
    lazy = build_schedule(algo, n, ELEMS, materialize=False, **kwargs)
    assert not lazy.profile_built
    assert _entries(lazy.timing_profile) == _entries(_direct_profile(algo, n, kwargs))


@pytest.mark.parametrize("algo", ["swing", "scring"])
def test_materialized_synthetic_builder_profiles_its_steps(algo):
    sched = build_schedule(algo, 16, ELEMS, materialize=True)
    assert _entries(sched.timing_profile) == _entries(compress_steps(sched.steps))


@pytest.mark.parametrize("materialize", [False, True])
@pytest.mark.parametrize("algo", available_algorithms())
def test_schedule_survives_pickle(algo, materialize):
    sched = build_schedule(algo, 16, ELEMS, materialize=materialize)
    clone = pickle.loads(pickle.dumps(sched))
    assert clone.profile_built == sched.profile_built
    assert materialize or not clone.profile_built
    assert (clone.algorithm, clone.n_nodes, clone.total_elems) == (
        sched.algorithm, sched.n_nodes, sched.total_elems,
    )
    assert _entries(clone.timing_profile) == _entries(sched.timing_profile)


@pytest.mark.parametrize(
    "algo,n,kwargs",
    [
        ("hring", 4, {"m": 5}),
        ("rd", 16, {"variant": "tripling"}),
        ("wrht", 32, {"plan": plan_wrht(16, 8)}),
        ("scring", 16, {"pipeline": 0}),
    ],
)
def test_bad_arguments_raise_when_built(algo, n, kwargs):
    with pytest.raises(ValueError):
        build_schedule(algo, n, ELEMS, materialize=False, **kwargs)
