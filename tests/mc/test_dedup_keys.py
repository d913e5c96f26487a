"""Dedup keys: the explorer's incremental digest partitions states exactly
as ``State.canonical()`` does, on real explorations.

The explorer dedups on the incremental digest (:mod:`repro.mc.encode`)
instead of the canonical tuple.  Were the two partitions to differ, a
digest collision would prune an unexplored state (and could mask a
violation), and a digest split would explore duplicates.  The property
suite (``tests/property/test_state_engine.py``) checks the partition on
random walks; these tests check it on every state the explorer digests
while checking the corpus and the litmus gallery, so a mismatch on a
path the walks never reach still fails here.
"""

import contextlib

import pytest

import repro.mc.explorer as explorer
from repro.api import compile_source, port_module
from repro.bench.corpus import BENCHMARKS
from repro.core.config import PortingLevel
from repro.mc.explorer import check_module
from repro.mc.litmus import LITMUS_TESTS

BOUNDS = dict(max_steps=600, max_states=400_000)
CORPUS = ("message_passing", "ck_ring", "ck_spinlock_cas", "ck_sequence",
          "lf_hash")


@contextlib.contextmanager
def _partition_checked():
    """Patch the explorer's digest to assert digest <=> canonical."""
    real = explorer.state_digest
    by_digest, by_canon = {}, {}
    seen = []

    def checked(state, interner):
        digest = real(state, interner)
        canon = state.canonical()
        assert by_digest.setdefault(digest, canon) == canon, (
            "two canonically different states share a digest")
        assert by_canon.setdefault(canon, digest) == digest, (
            "one canonical state got two digests")
        seen.append(digest)
        return digest

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explorer, "state_digest", checked)
        yield seen


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("model", ["tso", "wmm"])
def test_corpus_digest_partition(name, model):
    module, _report = port_module(
        compile_source(BENCHMARKS[name].mc_source(), name),
        PortingLevel.ATOMIG,
    )
    with _partition_checked() as seen:
        result = check_module(module, model=model, **BOUNDS)
    assert seen, f"{name}/{model}: no state digested"
    assert not result.truncated, f"{name}/{model}"


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_digest_partition(name):
    source, expected = LITMUS_TESTS[name]
    module = compile_source(source, f"litmus_{name}")
    for model in expected:
        for knobs in ({}, {"por": "none", "macro": "off"}):
            with _partition_checked() as seen:
                result = check_module(module, model=model, **knobs,
                                      **BOUNDS)
            assert seen, f"{name}/{model}"
            # ... and the calibrated verdict anchors both runs.
            assert result.ok == expected[model], f"{name}/{model}/{knobs}"
