"""Command-line front end: one subcommand per library operation.

Every run writes CSV artifacts plus a manifest.json recording the resolved
construction, the full parameter set, the seed and the output digests;
re-running a manifest reproduces the outputs byte for byte (no timestamps
anywhere).  Exact quantities appear in CSV as integers or num/den rationals;
floats occur only in sampled estimates and are printed with 17 significant
digits.  Exit codes: 0 success, 2 input error, 3 refusal.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction
from itertools import accumulate, islice, zip_longest
from operator import mul

from . import __version__
from .blocks import DEFAULT_CAP, BlockDag
from .construction import heights, load_construction, read_config
from .correlations import (
    correlation,
    verify_half_spacer_mixing,
    verify_rigid_one_spacer,
    verify_weak_limit_prediction,
)
from .errors import InputError, Refusal
from .limits import (
    LimitProfile,
    certify_powers,
    classify,
    detect_stabilizing,
    eigenvalue_search,
    limit_distribution,
)
from .odometer import cocycle_distribution
from .sarnak import (
    OrbitSpec,
    OrbitWord,
    _orbit_reach,
    cylinder_sarnak_averages,
    eigen_suspension_averages,
    prime_power_averages,
)

ENV_OUT = "RANKONE_OUT"
CYLINDERS_HELP = "word pairs W1:W2, comma-separated; a bare W means W:W"
REPORT_HEADER = ["family", "stage", "j_or_alpha", "lag", "W1", "W2", "observed", "predicted",
                 "abs_error", "ci", "method", "seed"]


def _rat(x):
    """Exact CSV field: integers as-is, rationals as num/den."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _float17(x):
    return f"{float(x):.17g}"


def _observed(est):
    """CSV field of a correlation estimate's value: exact as num/den, sampled as a float."""
    return _rat(est.value) if est.method == "EXACT_SCAN" else _float17(est.value)


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def _parse_pairs(text):
    """Power pairs: "1..5" for all pairs up to 5, or "1:2,2:3"; at least one."""
    try:
        if ".." in text:
            lo, hi = map(int, text.split(".."))
            pairs = [(a, b) for a in range(lo, hi + 1) for b in range(a + 1, hi + 1)]
        else:
            pairs = []
            for item in text.split(","):
                a, _, b = item.partition(":")
                pairs.append((int(a), int(b)))
    except ValueError as exc:
        raise InputError(f"power pairs must read like 1..5 or 1:2,2:3, not {text!r}") from exc
    if not pairs:
        raise InputError(f"power range {text!r} holds no pair j1 < j2")
    return pairs


def _parse_word_pairs(text):
    """Word pairs "W1:W2" comma-separated; a bare "W" means "W:W"."""
    pairs = []
    for item in text.split(","):
        a, sep, b = item.partition(":")
        pairs.append((a, b if sep else a))
    return pairs


class Run:
    """Collects artifacts for one invocation and writes the manifest."""

    def __init__(self, args, argv):
        self.args = args
        self.argv = list(argv)
        self.outdir = args.out or os.environ.get(ENV_OUT) or "."
        os.makedirs(self.outdir, exist_ok=True)
        self.outputs = []
        self.config_doc = None

    def path(self, name):
        return os.path.join(self.outdir, name)

    def write_csv(self, name, header, rows):
        """Tabular artifact in the selected format (csv default, json opt-in), row by row."""
        as_json = getattr(self.args, "format", "csv") == "json"
        name = name[: -len(".csv")] + ".json" if as_json else name
        path = self.path(name)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if as_json:
                # the indent-2, sorted-key dump of all rows, in batches: the C encoder
                # (indent None) puts ",\n    " between keys and between rows alike, and
                # one replace turns each row break "},\n    {" into the indented one; an
                # encoded string holds no raw newline, so no value can take part
                encode = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": ")).encode
                rows, sep = iter(rows), "[\n  {\n    "
                while batch := [dict(zip(header, row)) for row in islice(rows, 4096)]:
                    fh.write(sep + encode(batch)[2:-2].replace("},\n    {", "\n  },\n  {\n    "))
                    sep = "\n  },\n  {\n    "
                fh.write("[]\n" if sep.startswith("[") else "\n  }\n]\n")
            else:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
        self.outputs.append(name)
        return path

    def write_text(self, name, text):
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.outputs.append(name)
        return path

    def finish(self):
        digests = {}
        for name in self.outputs:
            digest = hashlib.sha256()
            with open(self.path(name), "rb") as fh:
                for chunk in iter(functools.partial(fh.read, 1 << 20), b""):
                    digest.update(chunk)
            digests[name] = "sha256:" + digest.hexdigest()
        manifest = {
            "tool": "rankone",
            "version": __version__,
            "command": self.args.command,
            "argv": self.argv,
            "construction": self.config_doc,
            "parameters": {
                k: v
                for k, v in sorted(vars(self.args).items())
                if k not in ("command", "func", "out") and v is not None
            },
            "seed": getattr(self.args, "seed", None),
            "outputs": digests,
        }
        path = self.path("manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2, default=str)
            fh.write("\n")
        return manifest


def _load(run):
    params = load_construction(run.args.config)
    run.config_doc = params.to_doc()
    return params


def _load_dag(run):
    """BlockDag of the construction under --cap.  A missing --stage defaults
    to the deepest block that fits under the cap."""
    dag = BlockDag(_load(run), cap=run.args.cap)
    if getattr(run.args, "stage", 1) is None:
        run.args.stage = dag.deepest_materializable()
        if run.args.stage is None:
            raise Refusal("no stage fits under the materialization cap")
    return dag


def _load_profile(run, depth_needed):
    """Profile from a profile JSON, or auto-derived from the construction."""
    source = str(run.args.config)
    if source.endswith(".json") and os.path.exists(source):
        source = read_config(source)
        if "profile" in source:
            run.config_doc = source
            return LimitProfile.from_doc(source)
    params = load_construction(source)
    run.config_doc = params.to_doc()
    cands = detect_stabilizing(params, window=(4, depth_needed + 1))
    if not cands:
        raise Refusal(
            "no stabilizing window pattern repeats in this prefix; supply a "
            "profile JSON instead"
        )
    return cands[0].profile


# ----------------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------------


def cmd_heights(run):
    params = _load(run)
    n = run.args.n
    hs = heights(params, n)
    widths = accumulate(params.cuts[:n], mul)  # q_k = p_1 ... p_k; h_{n+1} has none
    run.write_csv("heights.csv", ["stage", "height", "width"],
                  zip_longest(range(1, n + 2), hs, widths, fillvalue=""))
    print(",".join(map(str, hs)))
    return 0


def cmd_blocks(run):
    dag = _load_dag(run)
    stage, start, length = run.args.stage, run.args.start, run.args.length
    start = 1 if start is None else start
    if length is None:
        length = dag.height(stage) - start + 1
    # a range outside B_n is an input error at any cap
    dag.check_range(stage, start, length)
    word = dag.extract(stage, start, dag.check_cap(length))
    run.write_text(f"block_{stage}.txt", word + "\n")
    if len(word) <= 256:
        print(word)
    else:
        print(f"B_{stage}: {len(word)} symbols -> block_{stage}.txt")
    return 0


def cmd_freq(run):
    dag = _load_dag(run)
    stage = run.args.stage
    if run.args.words is not None:
        if run.args.maxlen is not None:
            raise InputError("--words and --maxlen are mutually exclusive")
        estimates = [dag.frequency(w, stage) for w in run.args.words.split(",")]
        rows = [(e.word, e.stage, e.count, e.denominator, _rat(e.frequency)) for e in estimates]
    else:
        maxlen = 3 if run.args.maxlen is None else run.args.maxlen
        if maxlen < 1:
            raise InputError("--maxlen must be at least 1")
        # the enumeration stops at the block's length; a named word must fit.
        # Words of lengths 1..m hold (m - 1) * 2^(m + 1) + 2 symbols in all,
        # more than the cap once m exceeds its bit length, so that total is
        # formed only for m up to there
        maxlen = min(maxlen, dag.height(stage))
        if maxlen > dag.cap.bit_length() or (maxlen - 1) * 2 ** (maxlen + 1) + 2 > dag.cap:
            raise Refusal(f"the words of lengths 1..{maxlen} hold more symbols in all than "
                          f"the cap {dag.cap} on the table's output; lower --maxlen or raise --cap")
        # one window table per length; the rows stream in `cylinder_words` order
        h = dag.height(stage)
        rows = ((w, stage, counts[w], h - k + 1, _rat(Fraction(counts[w], h - k + 1)))
                for k in range(1, maxlen + 1) for counts in [dag.window_counts(k, stage)]
                for w in (format(i, f"0{k}b") for i in range(2 ** k)))
    run.write_csv("freq.csv", ["word", "stage", "count", "denominator", "frequency"], rows)
    return 0


def _write_distribution(run, name, dist):
    run.write_csv(name, ["value", "numerator", "denominator"], dist.csv_rows())


def cmd_cocycle(run):
    params = _load(run)
    dist = cocycle_distribution(
        params, run.args.n, run.args.j, run.args.depth, run.args.method, run.args.cap
    )
    _write_distribution(run, "cocycle.csv", dist)
    print(f"support {list(dist.support())}, tail {dist.tail}")
    return 0


def cmd_pj(run):
    profile = _load_profile(run, run.args.depth)
    dist = limit_distribution(
        profile, run.args.j, run.args.depth, close_tail=run.args.close_tail
    )
    _write_distribution(run, "pj.csv", dist)
    print(f"support {list(dist.support())}, tail {dist.tail}")
    return 0


def cmd_profile(run):
    params = _load(run)
    cands = detect_stabilizing(params, run.args.window, run.args.range)
    doc = [
        {
            "indices": list(c.indices),
            "arithmetic": list(c.arithmetic) if c.arithmetic else None,
            **c.profile.to_doc(),
        }
        for c in cands
    ]
    run.write_text("profile.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(f"{len(cands)} candidate(s)")
    return 0


def cmd_certify(run):
    profile = _load_profile(run, run.args.depth)
    verdicts = certify_powers(profile, _parse_pairs(run.args.pairs), run.args.depth)
    rows = [
        (v.pair[0], v.pair[1], v.verdict, v.witness, v.depth, _rat(max(v.tail_bounds)))
        for v in verdicts
    ]
    run.write_csv(
        "certify.csv", ["j1", "j2", "verdict", "witness", "depth", "tail_bound"], rows
    )
    for row in rows:
        print(f"({row[0]},{row[1]}) {row[2]}")
    return 0


def cmd_classify(run):
    params = _load(run)
    stage_range = tuple(run.args.range) if run.args.range else None
    result = classify(params, stage_range, run.args.max_order)
    run.write_csv(
        "classify.csv",
        ["kind", "eigenvalue_orders", "flat_tail_start", "note"],
        [
            (
                result.kind,
                " ".join(map(str, result.eigenvalue_orders)),
                result.flat_tail_start if result.flat_tail_start is not None else "",
                result.note,
            )
        ],
    )
    print(result.kind)
    return 0


def cmd_eigen(run):
    params = _load(run)
    n0, n1 = run.args.range or (2, params.depth)
    orders = eigenvalue_search(params, run.args.max_order, (n0, n1))
    run.write_csv("eigen.csv", ["order"], [(k,) for k in orders])
    print(" ".join(map(str, orders)) or "none")
    return 0


def cmd_correlate(run):
    if run.args.method == "exact" and run.args.samples is not None:
        raise InputError("--samples applies to --method sampled only")
    dag = _load_dag(run)
    est = correlation(
        dag,
        run.args.w1,
        run.args.w2,
        run.args.lag,
        run.args.stage,
        method=run.args.method,
        sample_budget=run.args.samples,
        seed=run.args.seed,
    )
    value = _observed(est)
    run.write_csv(
        "correlate.csv",
        ["w1", "w2", "lag", "stage", "value", "method", "samples", "ci", "seed"],
        [
            (
                est.w1,
                est.w2,
                est.lag,
                est.stage,
                value,
                est.method,
                est.samples or "",
                _float17(est.ci) if est.ci is not None else "",
                est.seed if est.seed is not None else "",
            )
        ],
    )
    print(value)
    return 0


def _write_report(run, name, rows):
    run.write_csv(
        name,
        REPORT_HEADER,
        [
            (
                row.family,
                est.stage,
                row.label,
                est.lag,
                est.w1,
                est.w2,
                _observed(est),
                _rat(row.predicted),
                _float17(row.abs_error),
                _float17(row.ci),
                est.method,
                est.seed if est.seed is not None else "",
            )
            for row in rows
            for est in [row.estimate]
        ],
    )
    for row in rows:
        est = row.estimate
        print(
            f"{est.w1},{est.w2} lag={est.lag}: observed {float(est.value):.6f} "
            f"predicted {float(row.predicted):.6f} |err| {row.abs_error:.6f}"
        )


def cmd_verify_pj(run):
    rows = verify_weak_limit_prediction(
        _load_dag(run),
        run.args.n,
        run.args.j,
        _parse_word_pairs(run.args.cylinders),
        depth=run.args.depth,
        scan_stage=run.args.scan_stage,
    )
    _write_report(run, "verify_pj.csv", rows)
    return 0


def cmd_rigid_chacon(run):
    dag = _load_dag(run)
    try:
        powers = tuple(int(j) for j in run.args.powers.split(","))
    except ValueError as exc:
        raise InputError(f"powers must be comma-separated integers: {run.args.powers!r}") from exc
    rows = verify_rigid_one_spacer(
        dag,
        _parse_fraction(run.args.alpha),
        run.args.n,
        _parse_word_pairs(run.args.cylinders),
        powers=powers,
        scan_stage=run.args.scan_stage,
    )
    _write_report(run, "rigid_chacon.csv", rows)
    return 0


def cmd_katok(run):
    rows = verify_half_spacer_mixing(
        _load_dag(run),
        _parse_fraction(run.args.alpha),
        run.args.n,
        run.args.ell,
        _parse_word_pairs(run.args.cylinders),
        sample_budget=run.args.samples,
        seed=run.args.seed,
        scan_stage=run.args.scan_stage,
    )
    _write_report(run, "katok.csv", rows)
    return 0


def _orbit_spec(args, splice_suffix=0, splice_ones=0):
    if args.N < 1:
        raise InputError("--N must be >= 1")
    return OrbitSpec(args.stage, args.offset, splice_suffix, splice_ones)


def _parse_observable(text):
    kind, _, rest = text.partition(":")
    if kind == "cyl":
        if not rest or rest.strip("01"):
            raise InputError("observable cyl:<word over 0/1>")
        return ("cyl", rest)
    if kind == "eigen":
        try:
            return ("eigen", int(rest or "1"))
        except ValueError as exc:
            raise InputError("observable eigen:<integer power>") from exc
    raise InputError(f"unknown observable {text!r} (use cyl:<word> or eigen:<j>)")


def _cylinder_and_center(run, dag, by_frequency):
    """The --observable cylinder and its centering constant: --center-value if
    given, else the block frequency if `by_frequency`, else 0."""
    kind, cylinder = _parse_observable(run.args.observable)
    if kind != "cyl":
        raise InputError(f"{run.args.command} expects a cylinder observable; "
                         "use suspend for eigen")
    if run.args.center_value is not None:
        return cylinder, _parse_fraction(run.args.center_value)
    if by_frequency:
        return cylinder, dag.frequency(cylinder, run.args.stage).frequency
    return cylinder, Fraction(0)


def _cylinder_averages(dag, spec, cylinder, center, horizon, floors=1, start_floor=0):
    """Mobius averages of a centered cylinder along the orbit of `spec`, on
    `floors` floors from `start_floor`, read and sieved segment by segment."""
    word = OrbitWord(dag, spec, _orbit_reach(floors, start_floor, horizon) + len(cylinder) - 1)
    return cylinder_sarnak_averages(word, cylinder, center, horizon=horizon, floors=floors,
                                    start_floor=start_floor)


def _write_averages(run, name, rows, fmt=_rat):
    run.write_csv(name, ["N_prime", "partial_average"], [(n, fmt(v)) for n, v in rows])


def cmd_sarnak(run):
    args = run.args
    if args.center and args.center_value is not None:
        raise InputError("--center and --center-value are mutually exclusive")
    dag = _load_dag(run)
    spec = _orbit_spec(args, args.splice_suffix, args.splice_ones)
    cylinder, center = _cylinder_and_center(run, dag, args.center)
    rows = _cylinder_averages(dag, spec, cylinder, center, args.N)
    _write_averages(run, "sarnak.csv", rows)
    print(f"final |average| at N={rows[-1][0]}: {float(abs(rows[-1][1])):.3e}")
    return 0


def cmd_primepair(run):
    dag = _load_dag(run)
    p, q, horizon = run.args.p, run.args.q, run.args.N
    spec = _orbit_spec(run.args)
    cylinder, center = _cylinder_and_center(run, dag, True)
    word = OrbitWord(dag, spec, max(p, q) * horizon + len(cylinder))
    rows = prime_power_averages(word, cylinder, center, p, q, horizon)
    _write_averages(run, "primepair.csv", rows)
    print(f"final average at N={rows[-1][0]}: {float(rows[-1][1]):.3e}")
    return 0


def cmd_suspend(run):
    dag = _load_dag(run)
    kind, payload = _parse_observable(run.args.observable)
    K, start_floor, horizon = run.args.K, run.args.start_floor, run.args.N
    spec = _orbit_spec(run.args)
    if kind == "eigen":
        # the eigenfunction reads only the floor, but the orbit must stay in
        # B_stage: building the lazy word checks its window and reads nothing
        OrbitWord(dag, spec, _orbit_reach(K, start_floor, horizon))
        rows = eigen_suspension_averages(K, payload, horizon, start_floor)
        _write_averages(run, "suspend.csv", rows, lambda z: f"{z.real:.17g}{z.imag:+.17g}i")
    else:
        # the floors are measure-uniform: the block frequency centers every floor
        center = dag.frequency(payload, spec.stage).frequency
        rows = _cylinder_averages(dag, spec, payload, center, horizon, K, start_floor)
        _write_averages(run, "suspend.csv", rows)
    print(f"final |average| at N={rows[-1][0]}: {float(abs(rows[-1][1])):.3e}")
    return 0


# ----------------------------------------------------------------------------
# Parser and entry points
# ----------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The parser, built once: every default is immutable, so reuse is safe."""
    parser = argparse.ArgumentParser(
        prog="rankone",
        description="Exact invariants and orthogonality experiments for "
        "rank-one cutting-and-stacking systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, orbit=False, cap="materialization cap"):
        p.add_argument(
            "--config",
            required=True,
            help="JSON path or family name (chacon, vnk, generalized_chacon, "
            "katok; e.g. chacon:depth=30)",
        )
        p.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT} or .)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=cap)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if orbit:
            p.add_argument("--N", type=int, required=True, help="horizon")
            p.add_argument("--stage", type=int, default=None)
            p.add_argument("--offset", type=int, default=1)
        return p

    p = common(sub.add_parser("heights", help="tower heights and widths"))
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_heights)

    p = common(sub.add_parser("blocks", help="materialize a building block or a range"))
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--start", type=int)
    p.add_argument("--length", type=int)
    p.set_defaults(func=cmd_blocks)

    p = common(sub.add_parser("freq", help="exact word frequencies in a block"),
               cap="bound on the symbols of the --maxlen table's words in all")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--words", help="comma-separated words")
    p.add_argument("--maxlen", type=int, help="or: all words up to this length (default 3)")
    p.set_defaults(func=cmd_freq)

    p = common(sub.add_parser("cocycle", help="law of the centered cocycle sums at a stage"),
               cap="bound on the points --method enumerate visits")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-j", type=int, default=1)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--method", choices=("convolution", "enumerate"), default="convolution",
                   help="enumerate visits every level t of the truncated tower (orbit t + 1), "
                   "tabulates one entry per point and refuses beyond --cap points")
    p.set_defaults(func=cmd_cocycle)

    p = common(sub.add_parser("pj", help="limit law of a profile"))
    p.add_argument("-j", type=int, default=1)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--close-tail", action="store_true")
    p.set_defaults(func=cmd_pj)

    p = common(sub.add_parser("profile", help="detect stabilizing window patterns"))
    p.add_argument("--window", type=int, nargs=2, default=(2, 13), metavar=("L", "R"))
    p.add_argument("--range", type=int, nargs=2, default=None, metavar=("N0", "N1"))
    p.set_defaults(func=cmd_profile)

    p = common(sub.add_parser("certify", help="power-disjointness certificates"))
    p.add_argument("--pairs", default="1..5")
    p.add_argument("--depth", type=int, default=12)
    p.set_defaults(func=cmd_certify)

    p = common(sub.add_parser("classify", help="odometer / eigenvalues / weak-mixing candidate"))
    p.add_argument("--range", type=int, nargs=2, default=None, metavar=("N0", "N1"))
    p.add_argument("--max-order", type=int, default=12)
    p.set_defaults(func=cmd_classify)

    p = common(sub.add_parser("eigen", help="rational eigenvalue order search"))
    p.add_argument("--range", type=int, nargs=2, default=None, metavar=("N0", "N1"))
    p.add_argument("--max-order", type=int, default=12)
    p.set_defaults(func=cmd_eigen)

    p = common(sub.add_parser("correlate", help="cylinder correlation at a lag"), seed=True)
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--lag", type=int, required=True)
    p.add_argument("--method", choices=("exact", "sampled"), default="exact")
    p.add_argument("--samples", type=int)
    p.set_defaults(func=cmd_correlate)

    p = common(sub.add_parser("verify-pj", help="weak-limit prediction check"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-j", type=int, default=1)
    p.add_argument("--cylinders", default="0:0", help=CYLINDERS_HELP)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--scan-stage", type=int)
    p.set_defaults(func=cmd_verify_pj)

    p = common(sub.add_parser("rigid-chacon", help="one-spacer family rigidity limit check"))
    p.add_argument("--alpha", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--cylinders", default="0:0", help=CYLINDERS_HELP)
    p.add_argument("--powers", default="1")
    p.add_argument("--scan-stage", type=int)
    p.set_defaults(func=cmd_rigid_chacon)

    p = common(sub.add_parser("katok", help="half-spacer family mixing limit check"), seed=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True, help="shift count (multiple of h_n + 1)")
    p.add_argument("--cylinders", default="0:1", help=CYLINDERS_HELP)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--scan-stage", type=int)
    p.set_defaults(func=cmd_katok)

    p = sub.add_parser("sarnak", help="Mobius partial averages along an orbit")
    common(p, seed=True, orbit=True)
    p.add_argument("--observable", required=True, help="cyl:<word>")
    p.add_argument("--center", action="store_true", help="center by the block frequency")
    p.add_argument("--center-value", help="explicit rational centering constant")
    p.add_argument("--splice-suffix", type=int, default=0)
    p.add_argument("--splice-ones", type=int, default=0)
    p.set_defaults(func=cmd_sarnak)

    p = sub.add_parser("primepair", help="prime-pair correlation averages")
    common(p, seed=True, orbit=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--center-value")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.set_defaults(func=cmd_primepair)

    p = sub.add_parser("suspend", help="K-floor suspension orbit averages")
    common(p, seed=True, orbit=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--i0", dest="start_floor", type=int, default=0)
    p.add_argument("--observable", required=True, help="eigen:<j> or cyl:<word>")
    p.set_defaults(func=cmd_suspend)

    return parser


def run_argv(argv, outdir=None):
    """Programmatic entry used by tests and manifest replay."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cap < 0:
        raise InputError(f"--cap {args.cap} is negative")
    if outdir is not None:
        args.out = outdir
    run = Run(args, argv)
    code = args.func(run)
    manifest = run.finish()
    return code, manifest


def replay_manifest(manifest_path, outdir):
    """Re-run a recorded invocation and compare output digests byte for byte."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    _, fresh = run_argv(manifest["argv"], outdir=outdir)
    return fresh["outputs"] == manifest["outputs"], fresh


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code, _ = run_argv(argv)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
