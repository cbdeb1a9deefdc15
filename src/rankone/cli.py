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
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .blocks import BlockDag, cylinder_words
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
    EigenObservable,
    OrbitSpec,
    cylinder_sarnak_averages,
    floor_means,
    mobius_sieve,
    orbit_word,
    partial_averages,
    prime_power_averages,
    suspension_values,
)

ENV_OUT = "RANKONE_OUT"
REPORT_HEADER = ["family", "stage", "j_or_alpha", "lag", "W1", "W2", "observed", "predicted",
                 "abs_error", "ci", "method", "seed"]


def _rat(x):
    """Exact CSV field: integers as-is, rationals as num/den."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _float17(x):
    return f"{float(x):.17g}"


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def _parse_pairs(text):
    """Power pairs: "1..5" for all pairs up to 5, or "1:2,2:3"."""
    try:
        if ".." in text:
            lo, hi = map(int, text.split(".."))
            return [(a, b) for a in range(lo, hi + 1) for b in range(a + 1, hi + 1)]
        pairs = []
        for item in text.split(","):
            a, _, b = item.partition(":")
            pairs.append((int(a), int(b)))
        return pairs
    except ValueError as exc:
        raise InputError(f"power pairs must read like 1..5 or 1:2,2:3, not {text!r}") from exc


def _parse_word_pairs(text):
    pairs = []
    for item in text.split(","):
        a, _, b = item.partition(":")
        pairs.append((a, b or a))
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
        """Tabular artifact in the selected format (csv default, json opt-in)."""
        if getattr(self.args, "format", "csv") == "json":
            doc = [dict(zip(header, row)) for row in rows]
            return self.write_json(name[: -len(".csv")] + ".json", doc)
        path = self.path(name)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        self.outputs.append(name)
        return path

    def write_json(self, name, doc):
        return self.write_text(name, json.dumps(doc, sort_keys=True, indent=2) + "\n")

    def write_text(self, name, text):
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.outputs.append(name)
        return path

    def finish(self):
        digests = {}
        for name in self.outputs:
            with open(self.path(name), "rb") as fh:
                digests[name] = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
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
    text = str(run.args.config)
    if text.endswith(".json") and os.path.exists(text):
        doc = read_config(text)
        if "profile" in doc:
            p = doc["profile"]
            run.config_doc = doc
            return LimitProfile(
                int(p["lo"]),
                tuple(int(x) for x in p["pis"]),
                tuple(tuple(int(e) for e in row) for row in p["etas"]),
                p.get("bounded_by"),
            )
    params = _load(run)
    left = 4
    right = depth_needed + 1
    cands = detect_stabilizing(
        params, window=(left, right), search_range=(left + 1, params.depth - right)
    )
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
    seq = heights(params, n)
    rows = [(k, seq.h(k), seq.q(k) if k <= n else "") for k in range(1, n + 2)]
    run.write_csv("heights.csv", ["stage", "height", "width"], rows)
    print(",".join(str(h) for h in seq.heights))
    return 0


def cmd_blocks(run):
    dag = _load_dag(run)
    stage, start, length = run.args.stage, run.args.start, run.args.length
    if start is None and length is None:
        word = dag.materialize(stage)
    else:
        start = 1 if start is None else start
        if length is None:
            length = dag.height(stage) - start + 1
        word = dag.extract(stage, start, length)
    run.write_text(f"block_{stage}.txt", word + "\n")
    if len(word) <= 256:
        print(word)
    else:
        print(f"B_{stage}: {len(word)} symbols -> block_{stage}.txt")
    return 0


def cmd_freq(run):
    dag = _load_dag(run)
    stage = run.args.stage
    if run.args.words:
        words = [w for w in run.args.words.split(",") if w]
    else:
        words = cylinder_words(2 ** (run.args.maxlen + 1) - 2)
    rows = []
    for w in words:
        if len(w) > dag.height(stage):
            continue
        est = dag.frequency(w, stage)
        rows.append((est.word, est.stage, est.count, est.denominator, _rat(est.frequency)))
    run.write_csv("freq.csv", ["word", "stage", "count", "denominator", "frequency"], rows)
    return 0


def _write_distribution(run, name, dist):
    run.write_csv(name, ["value", "numerator", "denominator"], dist.csv_rows())


def cmd_cocycle(run):
    params = _load(run)
    dist = cocycle_distribution(params, run.args.n, run.args.j, run.args.depth, run.args.method)
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
    left, right = run.args.window
    n0, n1 = run.args.range or (left + 1, params.depth - right)
    cands = detect_stabilizing(params, (left, right), (n0, n1))
    doc = [
        {
            "indices": list(c.indices),
            "arithmetic": list(c.arithmetic) if c.arithmetic else None,
            **c.profile.to_doc(),
        }
        for c in cands
    ]
    run.write_json("profile.json", doc)
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
    value = _rat(est.value) if est.method == "EXACT_SCAN" else _float17(est.value)
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
                row.stage,
                row.label,
                row.lag,
                row.w1,
                row.w2,
                _rat(row.observed) if row.method == "EXACT_SCAN" else _float17(row.observed),
                _rat(row.predicted),
                _float17(row.abs_error),
                _float17(row.ci) if row.ci is not None else "",
                row.method,
                row.seed if row.seed is not None else "",
            )
            for row in rows
        ],
    )
    for row in rows:
        print(
            f"{row.w1},{row.w2} lag={row.lag}: observed {float(row.observed):.6f} "
            f"predicted {float(row.predicted):.6f} |err| {row.abs_error:.6f}"
        )


def cmd_verify_pj(run):
    params = _load(run)
    rows = verify_weak_limit_prediction(
        params,
        run.args.n,
        run.args.j,
        _parse_word_pairs(run.args.cylinders),
        depth=run.args.depth,
        scan_stage=run.args.scan_stage,
    )
    _write_report(run, "verify_pj.csv", rows)
    return 0


def cmd_rigid_chacon(run):
    params = _load(run)
    try:
        powers = tuple(int(j) for j in run.args.powers.split(","))
    except ValueError as exc:
        raise InputError(f"powers must be comma-separated integers: {run.args.powers!r}") from exc
    rows = verify_rigid_one_spacer(
        params,
        _parse_fraction(run.args.alpha),
        run.args.n,
        _parse_word_pairs(run.args.cylinders),
        powers=powers,
        scan_stage=run.args.scan_stage,
    )
    _write_report(run, "rigid_chacon.csv", rows)
    return 0


def cmd_katok(run):
    params = _load(run)
    rows = verify_half_spacer_mixing(
        params,
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


def _orbit_spec(args, floors=1):
    return OrbitSpec(
        stage=args.stage,
        offset=args.offset,
        splice_suffix=getattr(args, "splice_suffix", 0) or 0,
        splice_ones=getattr(args, "splice_ones", 0) or 0,
        floors=floors,
        start_floor=getattr(args, "start_floor", 0) or 0,
    )


def _parse_observable(text):
    kind, _, rest = text.partition(":")
    if kind == "cyl":
        if not rest or any(ch not in "01" for ch in rest):
            raise InputError("observable cyl:<word over 0/1>")
        return ("cyl", rest)
    if kind == "eigen":
        try:
            return ("eigen", int(rest or "1"))
        except ValueError as exc:
            raise InputError("observable eigen:<integer power>") from exc
    raise InputError(f"unknown observable {text!r} (use cyl:<word> or eigen:<j>)")


def _cylinder_averages(dag, spec, cylinder, center, horizon):
    """Mobius averages of a centered cylinder along the orbit of `spec`; a
    per-floor `center` list makes it the K-floor suspension orbit."""
    word = orbit_word(dag, spec, (spec.start_floor + horizon) // spec.floors + len(cylinder) + 1)
    return cylinder_sarnak_averages(
        word, cylinder, center, mobius_sieve(horizon), horizon, start_floor=spec.start_floor
    )


def _write_averages(run, name, rows, fmt=_rat):
    run.write_csv(name, ["N_prime", "partial_average"], [(n, fmt(v)) for n, v in rows])


def cmd_sarnak(run):
    dag = _load_dag(run)
    kind, payload = _parse_observable(run.args.observable)
    if kind != "cyl":
        raise InputError("sarnak expects a cylinder observable; use suspend for eigen")
    spec = _orbit_spec(run.args)
    if run.args.center_value is not None:
        center = _parse_fraction(run.args.center_value)
    elif run.args.center:
        center = dag.frequency(payload, spec.stage).frequency
    else:
        center = Fraction(0)
    rows = _cylinder_averages(dag, spec, payload, center, run.args.N)
    _write_averages(run, "sarnak.csv", rows)
    print(f"final |average| at N={rows[-1][0]}: {float(abs(rows[-1][1])):.3e}")
    return 0


def cmd_primepair(run):
    dag = _load_dag(run)
    kind, payload = _parse_observable(run.args.observable)
    if kind != "cyl":
        raise InputError("prime-pair correlations need a cylinder observable")
    p, q = run.args.p, run.args.q
    horizon = run.args.N
    spec = _orbit_spec(run.args)
    word = orbit_word(dag, spec, max(p, q) * horizon + len(payload) + 1)
    if run.args.center_value is not None:
        center = _parse_fraction(run.args.center_value)
    else:
        center = dag.frequency(payload, spec.stage).frequency
    rows = prime_power_averages(word, payload, center, p, q, horizon)
    _write_averages(run, "primepair.csv", rows)
    print(f"final average at N={rows[-1][0]}: {float(rows[-1][1]):.3e}")
    return 0


def cmd_suspend(run):
    dag = _load_dag(run)
    kind, payload = _parse_observable(run.args.observable)
    spec = _orbit_spec(run.args, floors=run.args.K)
    horizon = run.args.N
    if kind == "eigen":
        mu = mobius_sieve(horizon)
        values = suspension_values(dag, spec, EigenObservable(run.args.K, payload), horizon)
        rows = partial_averages(values, mu, horizon)
        _write_averages(run, "suspend.csv", rows, lambda z: f"{z.real:.17g}{z.imag:+.17g}i")
    else:
        centers = floor_means(dag, spec.stage, payload, run.args.K)
        rows = _cylinder_averages(dag, spec, payload, centers, horizon)
        _write_averages(run, "suspend.csv", rows)
    print(f"final |average| at N={rows[-1][0]}: {float(abs(rows[-1][1])):.3e}")
    return 0


# ----------------------------------------------------------------------------
# Parser and entry points
# ----------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rankone",
        description="Exact invariants and orthogonality experiments for "
        "rank-one cutting-and-stacking systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, orbit=False):
        p.add_argument(
            "--config",
            required=True,
            help="JSON path or family name (chacon, vnk, generalized_chacon, "
            "katok; e.g. chacon:depth=30)",
        )
        p.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT} or .)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--cap", type=int, default=10_000_000, help="materialization cap")
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

    p = common(sub.add_parser("freq", help="exact word frequencies in a block"))
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--words", help="comma-separated words")
    p.add_argument("--maxlen", type=int, default=3, help="or: all words up to this length")
    p.set_defaults(func=cmd_freq)

    p = common(sub.add_parser("cocycle", help="law of the centered cocycle sums at a stage"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-j", type=int, default=1)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--method", choices=("convolution", "enumerate"), default="convolution")
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
    p.add_argument("--cylinders", default="0:0", help="pairs W1:W2 comma-separated")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--scan-stage", type=int)
    p.set_defaults(func=cmd_verify_pj)

    p = common(sub.add_parser("rigid-chacon", help="one-spacer family rigidity limit check"))
    p.add_argument("--alpha", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--cylinders", default="0:0")
    p.add_argument("--powers", default="1")
    p.add_argument("--scan-stage", type=int)
    p.set_defaults(func=cmd_rigid_chacon)

    p = common(sub.add_parser("katok", help="half-spacer family mixing limit check"), seed=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True, help="shift count (multiple of h_n + 1)")
    p.add_argument("--cylinders", default="0:1")
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
