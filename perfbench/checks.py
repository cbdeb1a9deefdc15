"""Output checks: per-op digests, the frozen golden digests for the default
seed, and the library's own cross-checks, which hold for any seed."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from fractions import Fraction

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def file_digests(outdir):
    """sha256 of every file an op wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    return out


def combined_digest(digests):
    text = "".join(f"{name}={d}\n" for name, d in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def manifest_problem(outdir, digests):
    """A CLI op's manifest must list exactly the other files, with their digests."""
    if "manifest.json" not in digests:
        return "no manifest.json"
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["outputs"]
    written = {k: v for k, v in digests.items() if k != "manifest.json"}
    if listed != written:
        return f"manifest lists {sorted(listed)} with other digests than the files written"
    return None


def load_golden():
    if not os.path.exists(GOLDEN):
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _tail_of(rows):
    for row in rows:
        if row and row[0] == "TAIL":
            return Fraction(int(row[1]), int(row[2]))
    return None


def cross_checks(ops, outdir_of):
    """Problems found in the outputs of the last pass, as strings.

    * `cocycle` by convolution equals `cocycle` by enumeration, byte for byte;
    * every declared tail is at most j * 2^-depth;
    * every DISJOINT verdict carries a witness."""
    problems = []
    pairs = {}
    for op in ops:
        outdir = outdir_of(op)
        meta = op.meta
        if "pair" in meta:
            path = os.path.join(outdir, "cocycle.csv")
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    pairs.setdefault(meta["pair"], []).append((op.id, fh.read()))
        for name in ("cocycle.csv", "pj.csv"):
            path = os.path.join(outdir, name)
            if os.path.exists(path):
                tail = _tail_of(_rows(path))
                bound = Fraction(meta["j"], 2 ** meta["depth"])
                if tail is None or tail > bound:
                    problems.append(f"{op.id}: tail {tail} above j*2^-depth = {bound}")
        path = os.path.join(outdir, "verify_pj.csv")
        if os.path.exists(path):
            bound = meta["j"] / 2 ** meta["depth"]
            for row in _rows(path)[1:]:
                if float(row[9]) > bound:
                    problems.append(f"{op.id}: declared tail {row[9]} above {bound}")
        path = os.path.join(outdir, "certify.csv")
        if os.path.exists(path):
            for j1, j2, verdict, witness, depth, tail in _rows(path)[1:]:
                if verdict == "DISJOINT" and not witness:
                    problems.append(f"{op.id}: DISJOINT ({j1},{j2}) without a witness")
                if Fraction(tail) > Fraction(max(int(j1), int(j2)), 2 ** int(depth)):
                    problems.append(f"{op.id}: ({j1},{j2}) tail {tail} above j*2^-depth")
    for pair, outputs in pairs.items():
        if len(outputs) != 2 or outputs[0][1] != outputs[1][1]:
            problems.append(f"{pair}: convolution and enumeration disagree")
    return problems
