"""Smoke tests for the table harnesses (fast, reduced configurations)."""

from repro.bench.tables import (
    LINT_BENCHMARKS,
    PERF_SEEDS,
    TABLE2_PAPER,
    format_table,
    table1,
    table4,
    table5,
    table_lint,
)


def test_table1_static_rows():
    rows = table1()
    assert len(rows) == 8
    assert {row["approach"] for row in rows} >= {"Naive", "AtoMig", "Lasagne"}


def test_table2_paper_reference_shape():
    assert set(TABLE2_PAPER) == {
        "ck_ring", "ck_spinlock_cas", "ck_spinlock_mcs",
        "ck_sequence", "lf_hash",
    }
    for verdicts in TABLE2_PAPER.values():
        assert verdicts[0] is False  # no original verifies
        assert verdicts[3] is True  # AtoMig always does


def test_table4_runs_quickly_at_small_size():
    rows = table4(requests=20)
    by_counter = {row["counter"]: row for row in rows}
    assert by_counter["atomic loads"]["original"] == 0
    assert by_counter["atomic loads"]["atomig"] > 0


def test_table5_single_benchmark_subset():
    rows = table5(benchmarks=("message_passing",), seeds=(0,))
    assert len(rows) == 1
    row = rows[0]
    assert row["benchmark"] == "message_passing"
    assert row["naive"] > 0 and row["atomig"] > 0
    assert row["atomig"] <= row["naive"] + 0.10


def test_table5_serial_and_pooled_rows_identical():
    """The VM is deterministic per seed: pooling changes no digit."""
    subset = ("message_passing", "ck_ring")
    serial = table5(benchmarks=subset, seeds=(0,))
    pooled = table5(benchmarks=subset, seeds=(0,), jobs=2)
    assert [row["benchmark"] for row in serial] == list(subset)
    assert serial == pooled


def test_table_lint_single_benchmark_subset():
    assert "ck_spinlock_cas_legacy" in LINT_BENCHMARKS
    rows = table_lint(benchmarks=("ck_spinlock_cas_legacy",))
    assert len(rows) == 1
    row = rows[0]
    assert row["pruned"] > 0
    assert row["pruned_impl"] < row["atomig_impl"]
    assert row["wmm_ok"] is True


def test_format_table_alignment_and_values():
    rows = [
        {"name": "a", "ratio": 1.2345, "ok": True},
        {"name": "longer", "ratio": 10.0, "ok": False},
    ]
    text = format_table(rows, ["name", "ratio", "ok"], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "1.23" in text and "10.00" in text
    assert "yes" in text and "no" in text
    # All rows align to the same width.
    assert len(set(len(line) for line in lines[1:])) <= 2


def test_format_table_skips_paper_columns_by_default():
    rows = [{"benchmark": "x", "naive": 1.0, "paper_naive": 2.0}]
    text = format_table(rows)
    assert "paper_naive" not in text


def test_format_table_empty():
    assert format_table([]) == "(empty)"


def test_perf_seeds_are_plural():
    assert len(PERF_SEEDS) >= 2  # averaging is part of the method
