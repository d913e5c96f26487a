"""Extended verification matrix beyond the paper's Table 2.

Classic algorithms with well-known memory-model sensitivities, checked
through the same Original/AtoMig pipeline — including the paper's §1
motivating scenario (a DPDK-style ring silently broken by an Arm
recompile) and a case that is broken *even on TSO* (fence-less
Peterson), which porting alone cannot and should not "fix".

The 15 checks run through the batch runner; ``ATOMIG_JOBS=N`` in
the environment fans them across N worker processes (CI and local runs
default to sequential, which is bit-identical).
"""

import os

from repro.bench.programs import classic_locks
from repro.core.workers import run_batch
from repro.mc.parallel import CheckTask, run_task


CASES = {
    # name: (source builder, tso_ok, wmm_ok, atomig_wmm_ok)
    "peterson(+mfence)": (classic_locks.peterson_tso_source,
                          True, False, True),
    # Fence-less Peterson is broken even on x86 — and AtoMig *still*
    # repairs it: the spinloop marks interested0/1 and turn, and SC
    # atomics restore the store-load order TSO itself lacks.  Porting
    # to SC is strictly stronger than restoring TSO.
    "peterson(no fence)": (classic_locks.peterson_broken_source,
                           False, False, True),
    "dekker_core": (classic_locks.dekker_core_source, True, True, True),
    "treiber_stack": (classic_locks.treiber_stack_mc_source,
                      True, False, True),
    "dpdk_ring": (classic_locks.dpdk_ring_mc_source, True, False, True),
}

#: Each case expands into (model, porting level) checks in this order.
_MATRIX = (("tso", None), ("wmm", None), ("wmm", "atomig"))


def test_extended_verification(benchmark, record_table):
    jobs = int(os.environ.get("ATOMIG_JOBS", "0")) or None

    def run():
        tasks = [
            CheckTask(name=name, source=builder(), model=model, level=level,
                      max_steps=1500)
            for name, (builder, *_expected) in CASES.items()
            for model, level in _MATRIX
        ]
        results = iter(run_batch(run_task, tasks, jobs=jobs))
        return [
            (name, next(results), next(results), next(results),
             tso_ok, wmm_ok, fixed_ok)
            for name, (_builder, tso_ok, wmm_ok, fixed_ok) in CASES.items()
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Extended verification (beyond Table 2)",
             f"{'benchmark':22s} {'tso':>5} {'wmm':>5} {'atomig/wmm':>11}"]
    for name, tso, wmm, fixed, *_ in rows:
        lines.append(
            f"{name:22s} {'ok' if tso.ok else 'bug':>5} "
            f"{'ok' if wmm.ok else 'bug':>5} "
            f"{'ok' if fixed.ok else 'bug':>11}"
        )
    record_table("extended_verification", "\n".join(lines))

    for name, tso, wmm, fixed, tso_ok, wmm_ok, fixed_ok in rows:
        assert tso.ok == tso_ok, f"{name}: tso"
        assert wmm.ok == wmm_ok, f"{name}: wmm"
        assert fixed.ok == fixed_ok, f"{name}: atomig"
