"""Seeded inputs for the four benchmark workloads.

`build(workload, seed)` writes the construction and profile documents a
workload needs into the current directory and returns the operations of one
pass.  The program only ever sees these generated files and argument lists.

Seed 0 (the default) uses the README's arguments for every README example a
workload runs.  Sizes that would make one README pass longer than a few
seconds are scaled down (see NOTES.md).  Every other seed varies only choices
that leave the amount of work unchanged: sampler seeds, lags, orbit offsets,
and second words drawn from EQUAL_FREQ.  Run-to-run spread then measures the
machine rather than the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 0

WORKLOADS = ("exact-scan", "sampled-reads", "orbit-averages", "exact-laws")

# In the one-spacer families (chacon, generalized_chacon) every spacer is
# isolated, so each of these words occurs exactly once per spacer: a scan
# keyed on any of them visits the same number of positions.
EQUAL_FREQ = ("1", "01", "10", "010")
SECOND_WORDS = ("0", "1", "00", "01", "10")

H = {13: 797_161, 15: 7_174_453}  # chacon heights h_13, h_15


@dataclass
class Op:
    """One timed operation: a `rankone.cli.run_argv` argument list, or a
    library call (`lib`) that writes its result as JSON into the op's output
    directory.  `meta` feeds the cross-checks."""

    id: str
    argv: list = None
    lib: object = None
    meta: dict = field(default_factory=dict)

    @property
    def command(self):
        return self.argv[0] if self.argv else "lib." + self.lib.__name__


def _write_json(name, doc):
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return name


def _exact_scan(rng, readme):
    b = "1" if readme else rng.choice(EQUAL_FREQ)
    w2, lag = ("0", 40) if readme else (rng.choice(SECOND_WORDS), rng.randrange(1, 200))
    return [
        Op(
            "verify-pj",
            ["verify-pj", "--config", "chacon:depth=30", "-n", "10", "-j", "1",
             "--cylinders", f"0:0,0:{b}"],
            meta={"j": 1, "depth": 12},
        ),
        Op(
            "rigid-chacon",
            ["rigid-chacon", "--config", "generalized_chacon:depth=8", "--alpha", "1/2",
             "-n", "5"],
        ),
        Op(
            "correlate",
            ["correlate", "--config", "chacon:depth=16", "--stage", "14", "--w1", "0",
             "--w2", w2, "--lag", str(lag)],
        ),
    ]


def _sampled_reads(rng, readme):
    _write_json("katok.json", {"family": "katok", "cuts": [100, 10000]})
    if readme:
        ell, seeds, w2s, lags = 26, (1, 1, 1), ("0", "0"), (40, 40)
    else:
        # admissible shift counts: multiples of h_1 + 1 = 2 within p_1^(3/4)
        # of alpha * p_1 / 2 = 25
        ell = rng.randrange(14, 38, 2)
        seeds = tuple(rng.randrange(1, 2**31) for _ in range(3))
        w2s = (rng.choice(SECOND_WORDS), rng.choice(SECOND_WORDS))
        lags = (rng.randrange(1, 200), rng.randrange(1, 200))
    ops = [
        Op(
            "katok",
            ["katok", "--config", "katok.json", "--alpha", "1/2", "-n", "1", "--ell",
             str(ell), "--cylinders", "0:1", "--samples", "100000", "--seed", str(seeds[0])],
        )
    ]
    # stage 15 (h ~ 7.2e6) is inside the materialization cap, stage 31
    # (h ~ 3.1e14) beyond it: the same sampler at two descent depths
    for k, (stage, samples) in enumerate(((15, 20000), (31, 6000))):
        ops.append(
            Op(
                f"correlate.stage{stage}",
                ["correlate", "--config", "chacon:depth=30", "--stage", str(stage),
                 "--w1", "0", "--w2", w2s[k], "--lag", str(lags[k]), "--method", "sampled",
                 "--samples", str(samples), "--seed", str(seeds[k + 1])],
            )
        )
    return ops


def _orbit_averages(rng, readme):
    def offset(room):
        return 1 if readme else rng.randrange(1, room)

    return [
        Op(
            "sarnak",
            ["sarnak", "--config", "chacon:depth=30", "--observable", "cyl:0",
             "--center-value", "2/3", "--N", "1000000", "--stage", "15",
             "--offset", str(offset(H[15] - 1_000_010))],
        ),
        Op(
            "primepair",
            ["primepair", "--config", "chacon:depth=30", "--observable", "cyl:0",
             "--center-value", "2/3", "-p", "2", "-q", "3", "--N", "100000",
             "--stage", "13", "--offset", str(offset(H[13] - 300_010))],
        ),
        Op(
            "suspend.eigen",
            ["suspend", "--config", "chacon:depth=30", "--K", "3", "--observable", "eigen:1",
             "--N", "1000000", "--offset", str(offset(H[15] - 333_400))],
        ),
    ]


def known_failure_probe(seed):
    """`suspend` with a cylinder observable: on Python < 3.12 it raises
    TypeError while formatting a Fraction with `e` (cli.py, cmd_suspend)."""
    rng = random.Random(f"probe-{seed}")
    off = 1 if seed == DEFAULT_SEED else rng.randrange(1, H[15] - 33_400)
    return Op(
        "suspend.cyl",
        ["suspend", "--config", "chacon:depth=30", "--K", "3", "--observable", "cyl:0",
         "--N", "100000", "--offset", str(off)],
    )


README_LAWS = [
    ("readme.heights", ["heights", "--config", "vnk:depth=8", "-n", "3"], {}),
    ("readme.freq", ["freq", "--config", "chacon:depth=12", "--stage", "10", "--maxlen", "3"], {}),
    ("readme.cocycle", ["cocycle", "--config", "chacon:depth=30", "-n", "6", "-j", "2",
                        "--depth", "12"], {"j": 2, "depth": 12}),
    ("readme.profile", ["profile", "--config", "chacon:depth=30", "--window", "2", "13"], {}),
    ("readme.certify", ["certify", "--config", "chacon:depth=30", "--pairs", "1..5",
                        "--depth", "12"], {"depth": 12}),
    ("readme.classify", ["classify", "--config", "vnk:depth=12"], {}),
    ("readme.eigen", ["eigen", "--config", "vnk:depth=12", "--range", "3", "10"], {}),
]

ABC_LENGTHS = (5_000, 20_000, 50_000, 100_000)


def abc_decompose_windows(config, stage, offsets):
    """Library op: ABC decompositions of windows of B_stage, one per
    (offset, length) pair, summarised as JSON-ready dicts."""
    from rankone.blocks import BlockDag, abc_decompose
    from rankone.construction import load_construction

    dag = BlockDag(load_construction(config))
    out = []
    for off, length in zip(offsets, ABC_LENGTHS):
        word = dag.extract(stage, off, length)
        dec = abc_decompose(dag, word, Fraction(1, 4), 3)
        out.append(
            {
                "offset": off,
                "lengths": [len(dec.a), len(dec.b), len(dec.c)],
                "cover": [list(c) for c in dec.cover],
                "uncovered": dec.uncovered,
                "valid": dec.valid,
                "occurrence": list(dec.occurrence) if dec.occurrence else None,
                "note": dec.note,
            }
        )
    return out


def _lib_op(op_id, fn, *args):
    def call():
        return fn(*args)

    call.__name__ = fn.__name__
    return Op(op_id, lib=call)


def _exact_laws(rng, readme):
    ops = [Op(i, argv, meta=dict(meta)) for i, argv, meta in README_LAWS]
    for g in (1, 2):
        # a permutation of (2, 3, 4) as the period fixes the product of the
        # cuts over any 12 consecutive stages (24^4), so the enumeration
        # behind `cocycle --method enumerate` costs the same for every seed
        cuts = rng.sample((2, 3, 4), 3)
        spacers = [[rng.randint(0, 3) for _ in range(p)] for p in cuts]
        cons = _write_json(
            f"construction{g}.json",
            {"family": "custom", "depth": 32, "cuts": cuts, "spacers": spacers,
             "generator": {"rule": "periodic"}},
        )
        if readme and g == 1:
            pi, eta = 3, [0, 1, 0]  # the README profile's rows
        else:
            pi = rng.choice((2, 3, 4))
            eta = [rng.randint(0, 3) for _ in range(pi - 1)] + [0]
        # lo = -4 as in the README, but covering [1, 16] so that `pj --depth
        # 12` sees its whole window; zero full-column spacers allow --close-tail
        prof = _write_json(
            f"profile{g}.json",
            {"profile": {"lo": -4, "pis": [pi] * 21, "etas": [eta] * 21,
                         "bounded_by": max(eta)}},
        )
        n0 = str(rng.randrange(1, 9))
        cocycle = ["cocycle", "--config", cons, "-n", n0, "-j", "2", "--depth", "12"]
        laws = {"j": 2, "depth": 12, "pair": f"g{g}.cocycle"}
        ops += [
            Op(f"g{g}.heights", ["heights", "--config", cons, "-n", "30"]),
            Op(f"g{g}.freq", ["freq", "--config", cons, "--stage", "30", "--maxlen", "4"]),
            Op(f"g{g}.cocycle-conv", cocycle + ["--method", "convolution"], meta=laws),
            Op(f"g{g}.cocycle-enum", cocycle + ["--method", "enumerate"], meta=laws),
            Op(f"g{g}.pj", ["pj", "--config", prof, "-j", "1", "--depth", "12", "--close-tail"],
               meta={"j": 1, "depth": 12}),
            Op(f"g{g}.certify", ["certify", "--config", cons, "--pairs", "1..5", "--depth", "12"],
               meta={"depth": 12}),
            Op(f"g{g}.classify", ["classify", "--config", cons]),
            Op(f"g{g}.eigen", ["eigen", "--config", cons, "--range", "3", "10"]),
            Op(f"g{g}.profile", ["profile", "--config", cons, "--window", "2", "13"]),
        ]
        # B_20 has at least 2^19 symbols; the windows start anywhere in its
        # first 2^18 positions
        offsets = [rng.randrange(1, 2**18) for _ in ABC_LENGTHS]
        ops.append(_lib_op(f"g{g}.abc", abc_decompose_windows, cons, 20, offsets))
    return ops


BUILDERS = {
    "exact-scan": _exact_scan,
    "sampled-reads": _sampled_reads,
    "orbit-averages": _orbit_averages,
    "exact-laws": _exact_laws,
}


def build(workload, seed):
    """Operations of one pass of `workload`, inputs written to the cwd."""
    rng = random.Random(f"{workload}-{seed}")
    return BUILDERS[workload](rng, seed == DEFAULT_SEED)
