"""Property-based verdict identity: source-DPOR vs sleep-set backend.

The DPOR explorer is only admissible as a drop-in reduction (and the
oracle cache is only allowed to ignore ``por`` in its keys) if every
backend returns the same verdict on every program.  These properties
pin that across axes the hand-written tests cannot enumerate:

1. The litmus gallery under random models, against the sleep-set
   backend and the unreduced enumeration.
2. The weakened-litmus templates under *random memory-order
   assignments* — loads drawn from {relaxed, acquire, seq_cst}, stores
   from {relaxed, release, seq_cst} — which exercises every mix of
   immediate (SC/TSO) and windowed (WMM) operations, the boundary the
   footprinted-visible-step dependence in :mod:`repro.mc.dpor` lives
   on.
3. The journaled ``OP_CLK`` clock-table reverts: the clocks are
   excluded from ``State.canonical()`` and from the digest, so no
   verdict or dedup check sees them.  Every revert to a DFS node must
   restore exactly the table the node opened with.
4. The in-place DFS itself: DPOR mutates one ``State`` and reverts it
   to each node's journal mark before trying the node's next action,
   so every revert must also restore the node's ``State.canonical()``.
"""

import contextlib

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a CI dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

import repro.mc.dpor as dpor
from repro.api import compile_source
from repro.mc.explorer import check_module
from repro.mc.litmus import (
    LITMUS_TESTS,
    WEAKENED_LITMUS,
    run_weakened_litmus,
)

BOUNDS = dict(max_steps=600, max_states=400_000)
MODELS = ("sc", "tso", "wmm")
LOAD_ORDERS = ("memory_order_relaxed", "memory_order_acquire",
               "memory_order_seq_cst")
STORE_ORDERS = ("memory_order_relaxed", "memory_order_release",
                "memory_order_seq_cst")

_MODULES = {}


def _litmus_module(name):
    if name not in _MODULES:
        source, _expected = LITMUS_TESTS[name]
        _MODULES[name] = compile_source(source, f"litmus_{name}")
    return _MODULES[name]


def _signature(result):
    """What identity means: outcome class and truncation agree."""
    return (result.outcome, result.truncated)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(LITMUS_TESTS)),
    model=st.sampled_from(MODELS),
)
def test_litmus_gallery_identity(name, model):
    module = _litmus_module(name)
    sleep = check_module(module, model=model, por="sleep", **BOUNDS)
    result = check_module(module, model=model, por="dpor", **BOUNDS)
    assert _signature(sleep) == _signature(result)
    # The gallery's expected verdicts double as an absolute anchor, so
    # a bug shared by both backends cannot hide behind the identity.
    _source, expected = LITMUS_TESTS[name]
    assert result.ok == expected[model]


@st.composite
def weakened_variants(draw):
    """A weakened-litmus template with a random valid order assignment.

    Template keys starting with ``r`` name loads, the rest stores; the
    pools keep the IR well-formed (loads cannot be release, stores
    cannot be acquire).
    """
    name = draw(st.sampled_from(sorted(WEAKENED_LITMUS)))
    _template, minimal, _too_weak = WEAKENED_LITMUS[name]
    overrides = {
        key: draw(st.sampled_from(
            LOAD_ORDERS if key.startswith("r") else STORE_ORDERS
        ))
        for key in sorted(minimal)
    }
    return name, overrides


@settings(max_examples=60, deadline=None)
@given(variant=weakened_variants(), model=st.sampled_from(MODELS))
def test_weakened_random_orders_identity(variant, model):
    name, overrides = variant
    sleep = run_weakened_litmus(name, overrides, model, por="sleep",
                                **BOUNDS)
    result = run_weakened_litmus(name, overrides, model, por="dpor",
                                 **BOUNDS)
    assert _signature(sleep) == _signature(result), (name, model, overrides)


def _clock_table(state):
    return dict(state.clocks)


def _canonical(state):
    return state.canonical()


@contextlib.contextmanager
def _reverts_checked(snapshot=_clock_table):
    """Assert that every DPOR revert restores the node's ``snapshot``.

    Takes ``snapshot(state)`` when a node opens (keyed by its journal
    mark: marks strictly grow along a path, since every event journals
    its clock writes) and compares after each ``revert(..., node.mark)``.
    Yields the list of checked reverts.
    """
    real_digest, real_revert = dpor.state_digest, dpor.revert
    current = []   # the explored state (one object, mutated in place)
    opened = {}    # node mark -> clock table when the node opened
    checked = []

    def digest(state, interner):
        # open_node() always follows a digest of the state it opens.
        current[:] = [state]
        return real_digest(state, interner)

    class Node(dpor._Node):
        def __init__(self, mark, *args, **kwargs):
            super().__init__(mark, *args, **kwargs)
            opened[mark] = snapshot(current[0])

    def revert(state, journal, mark):
        real_revert(state, journal, mark)
        assert snapshot(state) == opened[mark], (
            f"{snapshot.__name__} not restored at journal mark {mark}")
        checked.append(mark)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dpor, "state_digest", digest)
        patch.setattr(dpor, "_Node", Node)
        patch.setattr(dpor, "revert", revert)
        yield checked


def _check_gallery_reverts(snapshot):
    total = 0
    for name in sorted(LITMUS_TESTS):
        _source, expected = LITMUS_TESTS[name]
        for model in MODELS:
            with _reverts_checked(snapshot) as checked:
                result = check_module(_litmus_module(name), model=model,
                                      por="dpor", **BOUNDS)
            assert result.ok == expected[model], (name, model)
            total += len(checked)
    assert total > 0, "no DPOR revert was exercised"


def test_dpor_clock_reverts_on_litmus_gallery():
    _check_gallery_reverts(_clock_table)


def test_dpor_state_reverts_on_litmus_gallery():
    _check_gallery_reverts(_canonical)


@settings(max_examples=25, deadline=None)
@given(variant=weakened_variants(), model=st.sampled_from(MODELS))
def test_dpor_clock_reverts_on_random_orders(variant, model):
    name, overrides = variant
    with _reverts_checked():
        run_weakened_litmus(name, overrides, model, por="dpor", **BOUNDS)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(LITMUS_TESTS)),
    model=st.sampled_from(MODELS),
)
def test_dpor_matches_unreduced_enumeration(name, model):
    """DPOR agrees with the unreduced explorer, the ground truth that
    owes nothing to sleep sets or macro-stepping.  (No state-count
    comparison: the enumerator dedups across branches, which stateless
    DPOR deliberately cannot, so neither count bounds the other.)"""
    module = _litmus_module(name)
    full = check_module(module, model=model, por="none", macro="off",
                        **BOUNDS)
    result = check_module(module, model=model, por="dpor", **BOUNDS)
    assert _signature(full) == _signature(result)
