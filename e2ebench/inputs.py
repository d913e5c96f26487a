"""Deterministic benchmark inputs, derived only from the ``--seed``.

``repro.bench.synth.SyntheticCodebase`` seeds its generator with
``hash(profile.name)``, which Python salts per process, so the stock
Table 3 apps differ from one process to the next.  The benchmark
replaces the generator's ``rng`` with a ``random.Random`` seeded from a
blake2b digest of the app name, scale and benchmark seed: the same
seed yields byte-identical sources in every process.

Run as a script to print the input manifest (name, lines, digest of
every input of every workload) for one seed::

    PYTHONPATH=src python3 e2ebench/inputs.py --seed 3
"""

import hashlib
import random
from dataclasses import dataclass

#: The five Table 3 applications, in the order they are ported.
APPS = ("mariadb", "postgresql", "leveldb", "memcached", "sqlite")
#: Scale of the port-apps inputs (1/200 of the paper's SLOC).
APP_SCALE = 200
#: Scale and profiles of the serve-mixed apps: each comes out at the
#: generator's 400-line floor or a little above.
SERVE_SCALE = 400
SERVE_PROFILES = ("leveldb", "memcached", "sqlite")
#: Distinct apps serve-mixed ports (six per client).
SERVE_APPS = 12


def digest(text):
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def stable_rng(*parts):
    """A ``random.Random`` seeded from a blake2b digest of ``parts``."""
    key = "|".join(str(part) for part in parts).encode()
    return random.Random(int.from_bytes(
        hashlib.blake2b(key, digest_size=8).digest(), "big"))


@dataclass(frozen=True)
class Input:
    """One source text handed to the program."""

    name: str
    source: str
    #: Spinloops / optimistic loops the generator planted (synthetic
    #: apps only); the porter must find exactly these.
    spinloops: int = 0
    optiloops: int = 0

    @property
    def lines(self):
        return self.source.count("\n")

    def manifest(self):
        return {"name": self.name, "lines": self.lines,
                "digest": digest(self.source)}


def synthetic_app(profile_name, scale, seed, name=None):
    """One density-matched synthetic app, stable across processes."""
    from repro.bench.synth import PAPER_TABLE3, SyntheticCodebase

    codebase = SyntheticCodebase(PAPER_TABLE3[profile_name], scale=scale)
    codebase.rng = stable_rng("synth", profile_name, scale, seed)
    return Input(
        name=name or profile_name, source=codebase.generate(),
        spinloops=codebase.n_spinloops, optiloops=codebase.n_optiloops,
    )


def port_apps_inputs(seed):
    return [synthetic_app(app, APP_SCALE, seed) for app in APPS]


def corpus_names():
    """Table 2 programs, then the alias and extended corpus."""
    from repro.bench.corpus import BENCHMARKS
    from repro.bench.tables import TABLE2_BENCHMARKS

    extra = [name for name, bench in BENCHMARKS.items()
             if {"alias", "extended"} & set(bench.tags)]
    return list(TABLE2_BENCHMARKS) + extra


def corpus_inputs():
    """{name: Input} of every corpus program's model-checking client."""
    from repro.bench.corpus import BENCHMARKS

    return {name: Input(name, BENCHMARKS[name].mc_source())
            for name in corpus_names()}


#: Programs whose exploration-gate clients verify-corpus checks.
GATE_PROGRAMS = ("ck_spinlock_mcs", "lf_hash")


def gate_inputs():
    from repro.bench.corpus import BENCHMARKS

    return {name: Input(f"{name}_gate", BENCHMARKS[name].gate_source())
            for name in GATE_PROGRAMS}


def serve_apps(seed, count=SERVE_APPS):
    """``count`` distinct small apps for the serve-mixed clients.

    Profiles cycle in a fixed order, so the amount of work does not
    depend on the seed; the seed only changes the generated code.
    """
    return [
        synthetic_app(SERVE_PROFILES[index % len(SERVE_PROFILES)],
                      SERVE_SCALE, f"{seed}/{index}", name=f"app{index}")
        for index in range(count)
    ]


def manifest(inputs):
    return [item.manifest() for item in inputs]


def full_manifest(seed):
    """Every workload's inputs for ``seed`` (the determinism witness)."""
    return {
        "port-apps": manifest(port_apps_inputs(seed)),
        "corpus": manifest(corpus_inputs().values()),
        "gates": manifest(gate_inputs().values()),
        "serve-apps": manifest(serve_apps(seed)),
    }


def main():
    import argparse
    import json
    import os
    import sys

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ported-ir", action="store_true",
                        help="also print the digest of each small app's "
                             "AtoMig-ported IR")
    options = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    payload = full_manifest(options.seed)
    if options.ported_ir:
        from repro.api import compile_source, port_module
        from repro.ir.printer import print_module

        payload["ported-ir"] = {}
        for item in serve_apps(options.seed, 2):
            module = compile_source(item.source, item.name, cache=False)
            ported, _report = port_module(module)
            payload["ported-ir"][item.name] = digest(print_module(ported))
    print(json.dumps(payload, sort_keys=True))


if __name__ == "__main__":
    main()
