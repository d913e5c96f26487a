"""Frontend-speed gate: the master-regex lexer and the precedence-climbing
parser against the character-by-character lexer and the tiered
recursive-descent parser they replaced (kept in
``tests/lang/reference_frontend.py``).

For each Table 3 synthetic app at 1/200 scale the run records the
minimum over ``REPEATS`` runs of lexing and of parsing seconds on both
frontends, with the collector paused on both sides so the ratio is the
lexer and parser alone, and writes them with the machine (cpus,
Python) and git revision to ``benchmarks/results/BENCH_frontend.json``.

Gate: lex + parse at least ``SPEEDUP_FLOOR`` times faster on the
mariadb app, with identical token streams.
"""

import gc
import json
import os
import platform
import subprocess
import sys
import time

import pytest

from repro import modcache
from repro.bench.synth import generate_codebase
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests", "lang"))
import reference_frontend as reference  # noqa: E402

APPS = ("mariadb", "postgresql", "leveldb", "memcached", "sqlite")
SCALE = 200
SEED = 1
REPEATS = 3
SPEEDUP_FLOOR = 2.0
GATE_APP = "mariadb"


def _best(call):
    """(minimum seconds over REPEATS calls, last result), collector off."""
    best, result = float("inf"), None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            started = time.perf_counter()
            result = call()
            best = min(best, time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return best, result


def _frontend(lex, parser_class, source):
    lex_s, tokens = _best(lambda: lex(source))
    parse_s, _ = _best(lambda: parser_class(tokens).parse_program())
    return {"lex_s": lex_s, "parse_s": parse_s}, tokens


def _git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


@pytest.fixture(scope="module")
def rows():
    rows = []
    for app in APPS:
        source = generate_codebase(app, scale=SCALE, seed=SEED)
        new, tokens = _frontend(tokenize, Parser, source)
        old, reference_tokens = _frontend(
            reference.tokenize, reference.Parser, source
        )
        rows.append({
            "app": app,
            "lines": source.count("\n"),
            "tokens": len(tokens),
            "tokens_equal": tokens == reference_tokens,
            "new": new,
            "reference": old,
            "speedup": (old["lex_s"] + old["parse_s"])
            / (new["lex_s"] + new["parse_s"]),
        })
    return rows


def test_token_streams_identical(rows):
    assert all(row["tokens_equal"] for row in rows)


def test_frontend_speedup(rows, results_dir):
    payload = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "git_rev": _git_rev(),
            # Identifies the measured sources when the tree is dirty.
            "code_fingerprint": modcache.code_fingerprint(),
        },
        "scale": SCALE,
        "seed": SEED,
        "repeats": REPEATS,
        "gate_app": GATE_APP,
        "speedup_floor": SPEEDUP_FLOOR,
        "rows": rows,
    }
    with open(os.path.join(results_dir, "BENCH_frontend.json"), "w") as out:
        json.dump(payload, out, indent=2)
        out.write("\n")
    for row in rows:
        print(f"{row['app']}: {row['tokens']} tokens, "
              f"lex {row['reference']['lex_s']:.3f}->{row['new']['lex_s']:.3f}s, "
              f"parse {row['reference']['parse_s']:.3f}->"
              f"{row['new']['parse_s']:.3f}s, {row['speedup']:.2f}x")
    gate = next(row for row in rows if row["app"] == GATE_APP)
    assert gate["speedup"] >= SPEEDUP_FLOOR, (
        f"{GATE_APP}: lex+parse only {gate['speedup']:.2f}x faster than "
        f"the reference frontend (floor {SPEEDUP_FLOOR}x)"
    )
