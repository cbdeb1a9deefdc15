import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rankone
from rankone.blocks import BlockDag, cylinder_words
from rankone.cli import REPORT_HEADER, Run, build_parser, main, replay_manifest, run_argv
from rankone.construction import katok, load_construction
from rankone.correlations import (
    verify_half_spacer_mixing,
    verify_rigid_one_spacer,
    verify_weak_limit_prediction,
)
from rankone.odometer import cocycle_distribution


def run(argv, outdir):
    return run_argv(argv + ["--out", str(outdir)])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_heights_roundtrip(tmp_path, capsys):
    code, manifest = run(["heights", "--config", "vnk:depth=3", "-n", "3"], tmp_path)
    assert code == 0
    assert capsys.readouterr().out.strip() == "1,2,4,8"
    rows = read_csv(tmp_path / "heights.csv")
    assert rows[0] == ["stage", "height", "width"]
    assert rows[1:] == [["1", "1", "2"], ["2", "2", "4"], ["3", "4", "8"], ["4", "8", ""]]
    assert manifest["construction"]["family"] == "vnk"


def test_blocks_and_freq(tmp_path, capsys):
    code, _ = run(["blocks", "--config", "chacon:depth=6", "--stage", "3"], tmp_path)
    assert code == 0
    assert (tmp_path / "block_3.txt").read_text().strip() == "0010001010010"
    code, _ = run(
        ["freq", "--config", "chacon:depth=6", "--stage", "3", "--words", "0,00"], tmp_path
    )
    rows = read_csv(tmp_path / "freq.csv")
    assert rows[0] == ["word", "stage", "count", "denominator", "frequency"]
    assert rows[1] == ["0", "3", "9", "13", "9/13"]
    assert rows[2] == ["00", "3", "4", "12", "1/3"]
    # counting reads blocks through the layout, so the cap never stops it
    for cap in ("1", "10000000"):
        code, _ = run(["freq", "--config", "chacon:depth=8", "--stage", "5", "--words", "00",
                       "--cap", cap], tmp_path)
        assert code == 0
        assert read_csv(tmp_path / "freq.csv")[1] == ["00", "5", "40", "120", "1/3"]


def test_freq_maxlen_stops_at_the_block_and_the_cap(tmp_path, capsys):
    # B_2 has 4 symbols: --maxlen 18 writes the 30 words of lengths 1..4, as --maxlen 4 does
    freq = ["freq", "--config", "chacon:depth=12", "--stage", "2"]
    for maxlen in ("4", "18"):
        code, _ = run(freq + ["--maxlen", maxlen], tmp_path / maxlen)
        assert code == 0
    table = (tmp_path / "4" / "freq.csv").read_bytes()
    assert len(read_csv(tmp_path / "4" / "freq.csv")) == 31
    assert (tmp_path / "18" / "freq.csv").read_bytes() == table
    # words of lengths 1..m hold (m - 1) * 2^(m + 1) + 2 symbols: 98 for m = 4
    freq = ["freq", "--config", "chacon:depth=30", "--stage", "30", "--maxlen", "4",
            "--out", str(tmp_path)]
    assert main(freq + ["--cap", "98"]) == 0
    capsys.readouterr()
    assert main(freq + ["--cap", "97"]) == 3
    assert capsys.readouterr().err == (
        "refused: the words of lengths 1..4 hold more symbols in all than the cap 97 on the "
        "table's output; lower --maxlen or raise --cap\n")
    # past the cap's bit length that total is never formed: at maxlen 15000
    # its digits exceed Python's int-to-str limit, and at 2e9 forming it takes seconds
    for maxlen in ("15000", "2000000000"):
        start = time.perf_counter()
        assert main(["freq", "--config", "chacon:depth=60", "--stage", "60", "--maxlen", maxlen,
                     "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err.startswith(f"refused: the words of lengths 1..{maxlen} ")


@pytest.mark.parametrize("config, stage", [
    ("chacon:depth=12", 4), ("vnk:depth=8", 6), ("katok:depth=4", 3),
    ("generalized_chacon:depth=8", 4), ("chacon:depth=30", 31)])
def test_freq_maxlen_table_equals_per_word_frequencies(tmp_path, monkeypatch, config, stage):
    # the rows come from one window table per length, with no per-word
    # descent: every row, zeros included, must still be the word's own
    # dag.frequency.  Short blocks hold words that occur once, next to words
    # that occur nowhere; B_31 of chacon holds about 3.1e14 symbols
    maxlen = 8
    with monkeypatch.context() as patch:
        for name in ("frequency", "count_occurrences", "_count"):
            patch.setattr(BlockDag, name, None)
        code, _ = run(["freq", "--config", config, "--stage", str(stage), "--maxlen", str(maxlen)],
                      tmp_path)
    assert code == 0
    dag = BlockDag(load_construction(config))
    expected = []
    for w in cylinder_words(2 ** (maxlen + 1) - 2):
        est = dag.frequency(w, stage)
        f = est.frequency
        expected.append([w, str(stage), str(est.count), str(est.denominator),
                         f"{f.numerator}/{f.denominator}"])
    rows = read_csv(tmp_path / "freq.csv")
    assert rows[1:] == expected
    assert any(row[2] == "0" for row in rows[1:])


def test_json_tables_match_csv(tmp_path):
    # a freq table, a cocycle law with its TAIL row and an empty eigen table:
    # each json file is written row by row and must be the one-shot dump
    cases = [
        (["freq", "--config", "chacon:depth=8", "--stage", "5", "--maxlen", "2"], "freq"),
        (["cocycle", "--config", "chacon:depth=20", "-n", "3", "-j", "2", "--depth", "6"],
         "cocycle"),
        (["eigen", "--config", "chacon:depth=12"], "eigen"),
    ]
    tables = {}
    for argv, name in cases:
        out = tmp_path / name
        assert run(argv, out / "csv")[0] == 0
        header, *rows = read_csv(out / "csv" / f"{name}.csv")
        code, manifest = run(argv + ["--format", "json"], out / "json")
        assert code == 0
        table = (out / "json" / f"{name}.json").read_bytes()
        records = json.loads(table)
        assert table.decode() == json.dumps(records, sort_keys=True, indent=2) + "\n"
        assert all(sorted(r) == sorted(header) for r in records)
        assert [[str(r[k]) for k in header] for r in records] == rows
        digest = "sha256:" + hashlib.sha256(table).hexdigest()
        assert manifest["outputs"] == {f"{name}.json": digest}
        ok, _ = replay_manifest(out / "json" / "manifest.json", str(out / "replay"))
        assert ok and (out / "replay" / f"{name}.json").read_bytes() == table
        tables[name] = records
    law = cocycle_distribution(load_construction("chacon:depth=20"), 3, 2, 6)
    assert tables["cocycle"] == [dict(zip(("value", "numerator", "denominator"), row))
                                 for row in law.csv_rows()]
    assert tables["cocycle"][-1]["value"] == "TAIL" and tables["eigen"] == []


@pytest.mark.parametrize(
    "header, rows",
    [
        (["text", "n", "x"],
         [('say "hi"', 1, 0.5), ("two\nlines", -2, 1e-300), ("Möbius – μ ☃", 2**70, -0.0),
          ("},\n    {", 0, 3.25), ('}",\n    {"', None, True), ("\\", "", False)]
         + [(f"row{k}", k, k / 7) for k in range(9000)]),
        (["only"], [(k,) for k in range(5000)] + [("},\n    {",)]),
        (["a", "b"], []),
    ],
    ids=["quotes-newlines-unicode-batches", "one-column", "empty"],
)
def test_json_writer_matches_one_shot_dump(tmp_path, header, rows):
    # the batched C-encoder writer gives the bytes of one indent-2, sorted-key
    # dump, whatever the strings hold and across batch boundaries
    args = build_parser().parse_args(
        ["heights", "--config", "vnk:depth=3", "-n", "2", "--format", "json",
         "--out", str(tmp_path)])
    path = Run(args, []).write_csv("table.csv", header, iter(rows))
    expected = json.dumps([dict(zip(header, row)) for row in rows], sort_keys=True, indent=2)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == expected + "\n"


def test_distribution_csv_footer(tmp_path):
    run(["cocycle", "--config", "chacon:depth=20", "-n", "3", "-j", "1", "--depth", "6"], tmp_path)
    rows = read_csv(tmp_path / "cocycle.csv")
    assert rows[0] == ["value", "numerator", "denominator"]
    assert rows[-1][0] == "TAIL"
    masses = {int(v): Fraction(int(a), int(b)) for v, a, b in rows[1:-1]}
    tail = Fraction(int(rows[-1][1]), int(rows[-1][2]))
    assert sum(masses.values()) + tail == 1


def test_certify_csv(tmp_path):
    code, _ = run(
        ["certify", "--config", "chacon:depth=30", "--pairs", "1..3", "--depth", "10"], tmp_path
    )
    assert code == 0
    rows = read_csv(tmp_path / "certify.csv")
    assert rows[0] == ["j1", "j2", "verdict", "witness", "depth", "tail_bound"]
    assert {r[2] for r in rows[1:]} == {"DISJOINT"}


def test_certify_all_tail_law_stays_inconclusive(tmp_path, capsys):
    # the window's difference gcd is 2, but at depth 1 the law of the cube
    # enumerates no mass: there is no support element to anchor a coset at
    config = tmp_path / "gcd2.json"
    config.write_text(json.dumps({"family": "custom", "cuts": [3], "spacers": [[0, 2, 0]],
                                  "depth": 30}))
    argv = ["certify", "--config", str(config), "--pairs", "1:3", "--depth", "1"]
    assert main(argv + ["--out", str(tmp_path / "shallow")]) == 0
    assert capsys.readouterr().out == "(1,3) INCONCLUSIVE\n"
    # deep enough, the law has mass and the certificate goes through
    argv[-1] = "4"
    assert main(argv + ["--out", str(tmp_path / "deep")]) == 0
    assert capsys.readouterr().out == "(1,3) DISJOINT\n"


def test_verify_pj_all_tail_law_is_refused(tmp_path, capsys):
    # at depth 1 the law of the 3-fold sum at stage 2 is all tail: no
    # prediction can be weighted, and the refusal names --depth
    argv = ["verify-pj", "--config", "chacon:depth=30", "-n", "2", "-j", "3", "--depth", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and "--depth" in err


def test_pj_profile_json_config(tmp_path):
    config = tmp_path / "profile.json"
    config.write_text(
        json.dumps(
            {
                "profile": {
                    "lo": 1,
                    "pis": [3] * 10,
                    "etas": [[0, 1, 0]] * 10,
                    "bounded_by": 1,
                }
            }
        )
    )
    code, _ = run(
        ["pj", "--config", str(config), "-j", "1", "--depth", "8", "--close-tail"], tmp_path
    )
    assert code == 0
    rows = read_csv(tmp_path / "pj.csv")
    assert rows[1] == ["0", "1", "2"] and rows[2] == ["1", "1", "2"]
    assert rows[-1] == ["TAIL", "0", "1"]


def test_readme_profile_example(tmp_path):
    # the profile document and the pj command exactly as the README shows them
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    doc = next(b for b in readme.split("```json\n")[1:] if b.startswith('{"profile"'))
    (tmp_path / "profile.json").write_text(doc.split("```")[0])
    argv = next(line for line in readme.splitlines() if line.startswith("rankone pj "))
    argv = argv.split("#")[0].split()[1:]
    argv[argv.index("profile.json")] = str(tmp_path / "profile.json")
    assert main(argv + ["--out", str(tmp_path)]) == 0


def test_classify_and_eigen(tmp_path, capsys):
    code, _ = run(["classify", "--config", "vnk:depth=12"], tmp_path)
    assert code == 0 and "ODOMETER" in capsys.readouterr().out
    code, _ = run(["eigen", "--config", "vnk:depth=12", "--range", "3", "10"], tmp_path)
    rows = read_csv(tmp_path / "eigen.csv")
    assert rows[1:] == [["2"], ["4"]]
    # the orders are divisor pairs of g: an order bound of 1e8 costs no
    # trial of each k up to it
    start = time.perf_counter()
    code, _ = run(["eigen", "--config", "vnk:depth=12", "--max-order", "100000000"], tmp_path)
    assert time.perf_counter() - start < 1
    assert code == 0 and read_csv(tmp_path / "eigen.csv")[1:] == [["2"]]


def test_correlate_exact_and_sampled(tmp_path):
    run(
        ["correlate", "--config", "chacon:depth=8", "--stage", "3", "--w1", "0", "--w2", "0", "--lag", "1"],
        tmp_path,
    )
    rows = read_csv(tmp_path / "correlate.csv")
    assert rows[1][4] == "1/3" and rows[1][5] == "EXACT_SCAN"
    run(
        [
            "correlate", "--config", "chacon:depth=12", "--stage", "10",
            "--w1", "0", "--w2", "0", "--lag", "1",
            "--method", "sampled", "--samples", "400", "--seed", "9",
        ],
        tmp_path,
    )
    rows = read_csv(tmp_path / "correlate.csv")
    assert rows[1][5] == "SAMPLED" and rows[1][8] == "9"
    float(rows[1][4])  # sampled values print as floats


def test_exact_correlate_beyond_cap(tmp_path):
    # B_31 of Chacon has (3^31 - 1) / 2 symbols, far above the cap, yet a
    # lag-1 count builds no string longer than the cached B_11
    code, _ = run(["correlate", "--config", "chacon:depth=30", "--stage", "31",
                   "--w1", "0", "--w2", "0", "--lag", "1"], tmp_path)
    assert code == 0
    assert read_csv(tmp_path / "correlate.csv")[1][4] == "1/3"
    # at lag 20000 the seam string of B_12 joins the 20000-symbol edges of its
    # three copies of B_11 and one spacer: 120004 symbols
    argv = ["correlate", "--config", "chacon:depth=30", "--stage", "31", "--w1", "0",
            "--w2", "0", "--lag", "20000", "--out", str(tmp_path)]
    assert main(argv + ["--cap", "120003"]) == 3
    assert main(argv + ["--cap", "120004"]) == 0
    # a lag far over the default cap is refused before any string that long is built
    argv[argv.index("--lag") + 1] = "10000000000000"
    assert main(argv) == 3


def test_cocycle_enumerate_beyond_cap(tmp_path, capsys):
    # the enumeration tabulates one entry per point: 3^20 points are refused
    # at the default cap before the table is built
    argv = ["cocycle", "--config", "chacon:depth=30", "-n", "0", "--depth", "20",
            "--method", "enumerate", "--out", str(tmp_path)]
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1
    assert "at least 3486784401" in capsys.readouterr().err
    # the cap counts points: 3^12 of them fit under a cap of exactly 3^12
    argv[argv.index("--depth") + 1] = "12"
    assert main(argv + ["--cap", str(3**12 - 1)]) == 3
    assert main(argv + ["--cap", str(3**12)]) == 0


def test_cap_help_says_what_the_cap_bounds():
    # nothing is materialized under cocycle's or freq's cap, so their help
    # says what it bounds; the other commands keep "materialization cap"
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    helps = {name: cmd._option_string_actions["--cap"].help for name, cmd in commands.items()}
    assert helps.pop("cocycle") == "bound on the points --method enumerate visits"
    assert helps.pop("freq") == "bound on the symbols of the --maxlen table's words in all"
    assert set(helps.values()) == {"materialization cap"}


def _library_cells(row):
    """The report cells a library row fixes whatever its method: all but
    observed, ci, method and seed."""
    est = row.estimate
    return {"family": row.family, "stage": str(est.stage), "j_or_alpha": row.label,
            "lag": str(est.lag), "W1": est.w1, "W2": est.w2,
            "predicted": f"{row.predicted.numerator}/{row.predicted.denominator}",
            "abs_error": f"{row.abs_error:.17g}"}


@pytest.mark.parametrize(
    "argv, name, rows, ci",
    [
        (["verify-pj", "--config", "chacon:depth=20", "-n", "6", "--cylinders", "0:0,0:1"],
         "verify_pj.csv",
         lambda: verify_weak_limit_prediction(
             BlockDag(load_construction("chacon:depth=20")), 6, 1, [("0", "0"), ("0", "1")]),
         # the declared tail mass of the law at the default depth 12
         lambda: cocycle_distribution(load_construction("chacon:depth=20"), 6, 1, 12).tail),
        (["rigid-chacon", "--config", "generalized_chacon:depth=6", "--alpha", "1/2", "-n", "3"],
         "rigid_chacon.csv",
         lambda: verify_rigid_one_spacer(
             BlockDag(load_construction("generalized_chacon:depth=6")), Fraction(1, 2), 3,
             [("0", "0")]),
         lambda: 0),
    ],
    ids=["verify-pj", "rigid-chacon"],
)
def test_exact_reports_match_library(tmp_path, argv, name, rows, ci):
    code, _ = run(argv, tmp_path)
    assert code == 0
    header, *body = read_csv(tmp_path / name)
    assert header == REPORT_HEADER
    expected = rows()
    assert len(body) == len(expected)
    for line, row in zip(body, expected):
        value = row.estimate.value
        assert row.estimate.method == "EXACT_SCAN" and row.estimate.seed is None
        assert dict(zip(header, line)) == {
            **_library_cells(row),
            "observed": f"{value.numerator}/{value.denominator}",
            "ci": f"{float(ci()):.17g}",
            "method": "EXACT_SCAN",
            "seed": "",
        }


def test_sampled_report_matches_library(tmp_path):
    config = tmp_path / "katok.json"
    config.write_text(json.dumps({"family": "katok", "cuts": [100, 30000]}))
    code, _ = run(["katok", "--config", str(config), "--alpha", "1/2", "-n", "1", "--ell", "26",
                   "--cylinders", "0:1,0", "--samples", "2000", "--seed", "5"], tmp_path)
    assert code == 0
    header, *body = read_csv(tmp_path / "katok.csv")
    assert header == REPORT_HEADER
    expected = verify_half_spacer_mixing(BlockDag(katok(cuts=(100, 30000))), Fraction(1, 2), 1,
                                         26, [("0", "1"), ("0", "0")], sample_budget=2000, seed=5)
    assert len(body) == len(expected) == 2
    half_width = math.sqrt(math.log(2 / 0.05) / (2 * 2000))  # Hoeffding, 95%
    for line, row in zip(body, expected):
        est = row.estimate
        assert est.method == "SAMPLED" and est.seed == 5 and est.value.denominator <= 2000
        assert dict(zip(header, line)) == {
            **_library_cells(row),
            "observed": f"{float(est.value):.17g}",
            "ci": f"{half_width:.17g}",
            "method": "SAMPLED",
            "seed": "5",
        }


def test_readme_verify_pj_rows(tmp_path):
    # the README's exact line: scan stage 15, lag 2,391,484 and a 2.4M-symbol
    # base block; the benchmark runs verify-pj only at -n 10
    code, _ = run(["verify-pj", "--config", "chacon:depth=30", "-n", "13", "-j", "1",
                   "--cylinders", "0:0,0:1"], tmp_path)
    assert code == 0
    header, *body = read_csv(tmp_path / "verify_pj.csv")
    columns = [header.index(k) for k in ("stage", "lag", "W1", "W2", "observed", "predicted")]
    assert [[line[i] for i in columns] for line in body] == [
        ["15", "2391484", "0", "0", "2391484/4782969", "439937478400/879876571563"],
        ["15", "2391484", "0", "1", "797162/4782969", "265720/1594323"],
    ]


def test_exit_codes(tmp_path):
    assert main(["heights", "--config", "chacon:depth=3", "-n", "9"]) == 2
    assert main(["classify", "--config", "generalized_chacon:depth=8"]) == 3
    # --cap reaches the scan: no block under 1000 symbols fits lag h_11
    assert main(["verify-pj", "--config", "chacon:depth=30", "-n", "10", "--cap", "1000"]) == 3
    # B_5 has 121 symbols: neither the block nor a range of all of it fits a cap of 10
    for extra in ([], ["--start", "1"]):
        assert main(["blocks", "--config", "chacon:depth=8", "--stage", "5", "--cap", "10"]
                    + extra) == 3
    # a block or a range of exactly --cap symbols fits, one symbol more is refused
    blocks = ["blocks", "--config", "chacon:depth=8", "--stage", "5", "--out", str(tmp_path)]
    for extra, length in (([], 121), (["--start", "2"], 120)):
        assert main(blocks + extra + ["--cap", str(length)]) == 0
        assert len((tmp_path / "block_5.txt").read_text().strip()) == length
        assert main(blocks + extra + ["--cap", str(length - 1)]) == 3
    # j * alpha must lie in (0, 1): power 0 would report a vacuous lag-0 row
    for power in ("0", "-1"):
        assert main(["rigid-chacon", "--config", "generalized_chacon:depth=8", "--alpha", "1/2",
                     "-n", "5", "--powers", power]) == 3
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 2


# a custom construction with a 5001-digit spacer, past CPython's default cap
# of 4300 digits on decimal conversion
BIG_SPACER = '{"cuts": [2], "spacers": [[0, 1' + "0" * 5000 + ']]}'


def test_main_converts_integers_of_any_length(tmp_path, capsys):
    config = tmp_path / "big.json"
    config.write_text(BIG_SPACER)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    out = tmp_path / "out"
    assert main(["heights", "--config", str(config), "-n", "1", "--out", str(out)]) == 0
    # h_2 = p_1 h_1 + s_{1,0} + s_{1,1} = 10^5000 + 2, exactly
    h2 = "1" + "0" * 4999 + "2"
    assert read_csv(out / "heights.csv")[1:] == [["1", "1", "2"], ["2", h2, ""]]
    assert capsys.readouterr().out.split() == [f"1,{h2}"]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_env_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("RANKONE_OUT", str(tmp_path / "envout"))
    code, _ = run_argv(["heights", "--config", "vnk:depth=3", "-n", "2"])
    assert code == 0
    assert (tmp_path / "envout" / "heights.csv").exists()


def test_manifest_replay_byte_identical(tmp_path):
    args = [
        "sarnak", "--config", "chacon:depth=30", "--observable", "cyl:0",
        "--center-value", "2/3", "--N", "5000", "--stage", "12",
    ]
    code, manifest = run(args, tmp_path / "a")
    assert code == 0
    ok, fresh = replay_manifest(tmp_path / "a" / "manifest.json", str(tmp_path / "b"))
    assert ok
    for name in manifest["outputs"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_records_parameters(tmp_path):
    config = tmp_path / "katok.json"
    config.write_text(json.dumps({"family": "katok", "cuts": [100, 30000]}))
    _, manifest = run(
        ["katok", "--config", str(config), "--alpha", "1/2", "-n", "1", "--ell", "26",
         "--cylinders", "0:1", "--samples", "50", "--seed", "4"],
        tmp_path,
    )
    assert manifest["seed"] == 4
    assert manifest["parameters"]["ell"] == 26
    assert manifest["command"] == "katok"
    assert all(d.startswith("sha256:") for d in manifest["outputs"].values())


def test_console_script_entrypoint(tmp_path):
    # the child imports the same rankone tree as this process, installed or not
    src = os.path.dirname(os.path.dirname(rankone.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rankone.cli", "heights", "--config", "vnk:depth=3",
         "-n", "3", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1,2,4,8"


def test_primepair_cli(tmp_path):
    code, _ = run(
        ["primepair", "--config", "chacon:depth=30", "--observable", "cyl:0",
         "--center-value", "2/3", "-p", "2", "-q", "3", "--N", "2000", "--stage", "13"],
        tmp_path,
    )
    assert code == 0
    rows = read_csv(tmp_path / "primepair.csv")
    assert rows[0] == ["N_prime", "partial_average"]
    assert len(rows) > 8
    Fraction(rows[-1][1])  # exact rational output


def test_suspend_cli(tmp_path):
    code, _ = run(
        ["suspend", "--config", "chacon:depth=30", "--K", "3", "--observable", "eigen:1",
         "--N", "3000", "--stage", "12"],
        tmp_path,
    )
    assert code == 0
    rows = read_csv(tmp_path / "suspend.csv")
    assert rows[0] == ["N_prime", "partial_average"]
    complex(rows[-1][1].replace("i", "j"))  # parses as a complex number


def test_suspend_cylinder_observable(tmp_path, capsys):
    # no --stage: the deepest block under the cap (h_15 of Chacon) is used
    # and recorded in the manifest
    code, manifest = run(
        ["suspend", "--config", "chacon:depth=30", "--K", "3", "--observable", "cyl:0",
         "--N", "3000"],
        tmp_path,
    )
    assert code == 0
    assert manifest["parameters"]["stage"] == 15
    assert "final |average| at N=3000" in capsys.readouterr().out
    rows = read_csv(tmp_path / "suspend.csv")
    assert rows[0] == ["N_prime", "partial_average"]
    assert rows[-1][0] == "3000"
    assert all("/" in r[1] for r in rows[1:])
    Fraction(rows[-1][1])  # exact rational output


def test_suspend_eigen_orbit_leaving_block_exits_2(tmp_path, capsys):
    # the eigenfunction reads no symbol, yet steps 1..30 on 3 floors move the
    # base 10 positions on: from offset 111 to h_5 = 121, from 112 past it
    argv = ["suspend", "--config", "chacon:depth=12", "--K", "3", "--observable", "eigen:1",
            "--N", "30", "--stage", "5", "--out", str(tmp_path)]
    assert main(argv + ["--offset", "115"]) == 2
    assert "leaves B_5" in capsys.readouterr().err
    assert main(argv + ["--offset", "112"]) == 2
    assert "window [112, 122] leaves B_5" in capsys.readouterr().err
    assert main(argv + ["--offset", "111"]) == 0


def test_suspend_eigen_checks_the_orbit_without_extracting(tmp_path, capsys, monkeypatch):
    def extract(*args):
        raise AssertionError("the eigen path reads no symbol")

    monkeypatch.setattr("rankone.blocks.BlockDag.extract", extract)
    argv = ["suspend", "--config", "chacon:depth=12", "--K", "3", "--observable", "eigen:1",
            "--N", "30", "--stage", "5", "--out", str(tmp_path)]
    assert main(argv + ["--offset", "111"]) == 0
    assert main(argv + ["--offset", "112"]) == 2
    assert "leaves B_5" in capsys.readouterr().err


def test_sarnak_orbit_may_end_on_the_last_symbol(tmp_path, capsys):
    # steps 1..10 read cyl:01 at offsets 111..120, so the last window ends on h_5 = 121
    argv = ["sarnak", "--config", "chacon:depth=12", "--observable", "cyl:01", "--N", "10",
            "--stage", "5", "--out", str(tmp_path)]
    assert main(argv + ["--offset", "110"]) == 0
    assert main(argv + ["--offset", "111"]) == 2
    assert "window [111, 122] leaves B_5" in capsys.readouterr().err


# each profile document differs from a valid one (pj exits 0 on it) in one field
VALID_PROFILE = {"lo": 1, "pis": [3] * 12, "etas": [[0, 1, 0]] * 12, "bounded_by": 1}
MALFORMED_DOCS = {
    "list.json": [{"family": "chacon", "depth": 5}],
    "no-lo.json": {"profile": {k: v for k, v in VALID_PROFILE.items() if k != "lo"}},
    "str-lo.json": {"profile": {**VALID_PROFILE, "lo": "x"}},
    "bool-lo.json": {"profile": {**VALID_PROFILE, "lo": True}},
    "str-bound.json": {"profile": {**VALID_PROFILE, "bounded_by": "x"}},
    "float-bound.json": {"profile": {**VALID_PROFILE, "bounded_by": 2.5}},
    "no-depth.json": {"family": "chacon"},
    "str-cut.json": {"family": "custom", "cuts": ["x"], "spacers": [[0, 0]]},
    "int-cuts.json": {"family": "custom", "cuts": 3, "spacers": [[0, 0]]},
    "list-generator.json": {"family": "chacon", "depth": 3, "generator": [1]},
    "str-generator.json": {"family": "custom", "cuts": [2], "spacers": [[0, 0]],
                           "generator": "x"},
    # schedules whose spacer rows would spell out more than 10^7 entries
    "katok-huge-cut.json": {"family": "katok", "cuts": [4, 1_000_000_000]},
    "generalized-chacon-huge-cut.json": {"family": "generalized_chacon", "depth": 2,
                                         "cuts": [4, 1_000_000_000]},
    "custom-huge-depth.json": {"family": "custom", "depth": 1_000_000_000, "cuts": [2],
                               "spacers": [[0, 0]], "generator": {"rule": "periodic"}},
    # valid documents, for argvs whose fault lies in an option
    "katok.json": {"family": "katok", "cuts": [100, 10000]},
    "eigen-2-3-6.json": {"family": "custom", "depth": 12, "cuts": [3], "spacers": [[1, 1, 0]],
                         "generator": {"rule": "periodic"}},
    **{
        f"spacer-index-{name}.json": {"family": "generalized_chacon", "depth": 3,
                                      "generator": {"spacer_index": idx}}
        for name, idx in (("str-entry", ["x", 0, 0]), ("short", [0]), ("float", 2.5),
                          ("object", {"a": 1}), ("bool", True))
    },
}

# cases whose message must name the range or the value the user gave
MALFORMED_MESSAGES = {
    "heights-n-0": "stage 0 outside 1..8",
    "cocycle-n-negative": "stage -1 is negative",
    "correlate-exact-samples": "--samples applies to --method sampled only",
    "sarnak-N-0": "--N must be >= 1",
    "suspend-N-0": "--N must be >= 1",
    "primepair-N-negative": "--N must be >= 1",
    "cylinders-empty-second": "words must be non-empty",
    "sarnak-splice-offset": "a spliced orbit takes no offset",
    "sarnak-center-and-value": "--center and --center-value are mutually exclusive",
    "katok-not-half-spacered": "needs the half-spacered family",
    "correlate-negative-seed": "seed must be >= 0",
    "katok-negative-seed": "seed must be >= 0",
    "correlate-negative-lag": "the lag must be >= 0",
    "profile-range-reversed": "empty search range [9, 4]",
    "profile-default-range-empty": "needs a construction of depth >= 16, not 10",
    "certify-prefix-too-short": "4 stages left and 7 right needs a construction of depth >= 12",
    "pj-prefix-too-short": "4 stages left and 7 right needs a construction of depth >= 12",
    "certify-katok-default-depth": "needs a construction of depth >= 18, not 8",
    "pj-depth-past-prefix": "needs a construction of depth >= 18, not 10",
    "profile-window-past-prefix": "needs a construction of depth >= 16, not 12",
    "katok-scan-stage-too-shallow": "stage 1 too shallow for lag 26",
    "classify-max-order-1": "max order 1 is below 2",
    "eigen-max-order-1": "max order 1 is below 2",
    "katok-default-depth-26": "16777212 spacer entries in stages 1..22 exceed 10000000",
    "katok-huge-cut": "1000000004 spacer entries in stages 1..2 exceed 10000000",
    "generalized-chacon-huge-cut": "1000000004 spacer entries in stages 1..2",
    "custom-periodic-huge-depth": "10000002 spacer entries in stages 1..5000001",
    "correlate-negative-cap": "--cap -1 is negative",
    "blocks-negative-cap": "--cap -5 is negative",
    "heights-negative-cap": "--cap -1 is negative",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["heights", "--config", "{tmp}/missing.json", "-n", "2"],
        ["heights", "--config", "chacon:depth=x", "-n", "2"],
        ["certify", "--config", "chacon:depth=30", "--pairs", "1:x", "--depth", "6"],
        ["heights", "--config", "{tmp}/list.json", "-n", "2"],
        ["blocks", "--config", "chacon:depth=6", "--stage", "3", "--start", "0"],
        ["blocks", "--config", "chacon:depth=8", "--stage", "5", "--start", "0", "--cap", "5"],
        ["rigid-chacon", "--config", "generalized_chacon:depth=8", "--alpha", "1/2", "-n", "5",
         "--powers", "1,x"],
        ["pj", "--config", "{tmp}/no-lo.json", "-j", "1", "--depth", "3"],
        ["pj", "--config", "{tmp}/str-lo.json", "-j", "1", "--depth", "3"],
        ["pj", "--config", "{tmp}/bool-lo.json", "-j", "1", "--depth", "3"],
        ["pj", "--config", "{tmp}/str-bound.json", "-j", "1", "--depth", "3"],
        ["pj", "--config", "{tmp}/float-bound.json", "-j", "1", "--depth", "3"],
        ["heights", "--config", "{tmp}/no-depth.json", "-n", "2"],
        ["heights", "--config", "{tmp}/str-cut.json", "-n", "1"],
        ["heights", "--config", "{tmp}/int-cuts.json", "-n", "1"],
        ["heights", "--config", "{tmp}/list-generator.json", "-n", "1"],
        ["heights", "--config", "{tmp}/str-generator.json", "-n", "1"],
        ["heights", "--config", "{tmp}/spacer-index-str-entry.json", "-n", "1"],
        ["heights", "--config", "{tmp}/spacer-index-short.json", "-n", "1"],
        ["heights", "--config", "{tmp}/spacer-index-float.json", "-n", "1"],
        ["heights", "--config", "{tmp}/spacer-index-object.json", "-n", "1"],
        ["heights", "--config", "{tmp}/spacer-index-bool.json", "-n", "1"],
        ["heights", "--config", "chacon:dept=30", "-n", "1"],
        ["heights", "--config", "vnk:depth=3,spacer_index=2", "-n", "1"],
        ["primepair", "--config", "chacon:depth=20", "--observable", "cyl:0", "--N", "100",
         "-p", "-1", "-q", "3"],
        ["primepair", "--config", "chacon:depth=20", "--observable", "cyl:0", "--N", "100",
         "-p", "0", "-q", "3"],
        ["freq", "--config", "chacon:depth=8", "--stage", "3", "--maxlen", "0"],
        ["freq", "--config", "chacon:depth=8", "--stage", "3", "--maxlen", "-1"],
        ["freq", "--config", "chacon:depth=8", "--stage", "3", "--words", ","],
        ["freq", "--config", "chacon:depth=8", "--stage", "2", "--words", "0,000000"],
        ["freq", "--config", "chacon:depth=8", "--stage", "5", "--words", "0", "--maxlen", "-1"],
        ["certify", "--config", "chacon:depth=30", "--pairs", "5..5", "--depth", "6"],
        ["certify", "--config", "chacon:depth=30", "--pairs", "3..1", "--depth", "6"],
        ["heights", "--config", "chacon:depth=8", "-n", "0"],
        ["cocycle", "--config", "chacon:depth=30", "-n", "-1"],
        ["correlate", "--config", "chacon:depth=8", "--stage", "5", "--w1", "0", "--w2", "0",
         "--lag", "1", "--method", "exact", "--samples", "0"],
        ["sarnak", "--config", "chacon:depth=20", "--observable", "cyl:0", "--N", "0",
         "--stage", "10"],
        ["suspend", "--config", "chacon:depth=20", "--K", "3", "--observable", "eigen:1",
         "--N", "0", "--stage", "10"],
        ["primepair", "--config", "chacon:depth=20", "--observable", "cyl:0", "--N", "-3",
         "-p", "2", "-q", "3"],
        ["verify-pj", "--config", "chacon:depth=30", "-n", "3", "--cylinders", "0:"],
        ["sarnak", "--config", "chacon:depth=12", "--observable", "cyl:0", "--N", "40",
         "--stage", "6", "--splice-suffix", "3", "--splice-ones", "2", "--offset", "50"],
        ["sarnak", "--config", "chacon:depth=12", "--observable", "cyl:0", "--N", "40",
         "--stage", "6", "--center", "--center-value", "2/3"],
        ["katok", "--config", "chacon:depth=20", "--alpha", "1/2", "-n", "1", "--ell", "2",
         "--samples", "1000"],
        # Random(-s) draws what Random(s) draws: a negative seed would repeat another's run
        ["correlate", "--config", "chacon:depth=30", "--stage", "31", "--w1", "0", "--w2", "0",
         "--lag", "40", "--method", "sampled", "--samples", "10", "--seed", "-1"],
        ["katok", "--config", "katok:depth=4", "--alpha", "1/2", "-n", "1", "--ell", "2",
         "--samples", "10", "--seed", "-1"],
        # a negative lag is refused as such, not as a lag too long for the stage
        ["correlate", "--config", "chacon:depth=30", "--stage", "15", "--w1", "0", "--w2", "0",
         "--lag", "-1", "--method", "sampled", "--samples", "10", "--seed", "1"],
        ["profile", "--config", "chacon:depth=30", "--range", "9", "4"],
        # no range given: the default (left + 1, depth - right) is empty below depth
        # left + right + 1, and the message names that depth
        ["profile", "--config", "chacon:depth=10", "--window", "2", "13"],
        # auto-derived profiles use the window (4, --depth + 1): depth 12 for --depth 6
        ["certify", "--config", "chacon:depth=10", "--pairs", "1..3", "--depth", "6"],
        ["pj", "--config", "chacon:depth=10", "-j", "1", "--depth", "6"],
        ["certify", "--config", "katok:depth=8"],
        ["pj", "--config", "chacon:depth=10", "--depth", "12"],
        ["profile", "--config", "chacon:depth=12", "--window", "2", "13"],
        # a requested scan stage whose block cannot hold the lag, as verify-pj refuses it
        ["katok", "--config", "{tmp}/katok.json", "--alpha", "1/2", "-n", "1", "--ell", "26",
         "--scan-stage", "1"],
        # orders start at 2: below that, classify read WEAKLY_MIXING_CANDIDATE and eigen "none"
        ["classify", "--config", "{tmp}/eigen-2-3-6.json", "--max-order", "1"],
        ["eigen", "--config", "{tmp}/eigen-2-3-6.json", "--max-order", "1"],
        # schedules whose rows would fill memory, refused before one is built
        ["heights", "--config", "katok:depth=26", "-n", "3"],
        ["heights", "--config", "{tmp}/katok-huge-cut.json", "-n", "1"],
        ["heights", "--config", "{tmp}/generalized-chacon-huge-cut.json", "-n", "1"],
        ["heights", "--config", "{tmp}/custom-huge-depth.json", "-n", "1"],
        # a negative cap is refused as parsed, before the output directory is made
        ["correlate", "--config", "chacon:depth=8", "--stage", "5", "--w1", "0", "--w2", "0",
         "--lag", "3", "--cap", "-1"],
        ["blocks", "--config", "chacon:depth=8", "--stage", "3", "--cap", "-5"],
        ["heights", "--config", "chacon:depth=8", "-n", "3", "--cap", "-1"],
    ],
    ids=["missing-config", "bad-family-arg", "bad-pairs", "list-config", "start-0",
         "start-0-small-cap", "bad-powers",
         "profile-no-lo", "profile-str-lo", "profile-bool-lo", "profile-str-bound",
         "profile-float-bound", "family-no-depth", "custom-str-cut", "custom-int-cuts",
         "list-generator", "str-generator", "spacer-index-str-entry", "spacer-index-short",
         "spacer-index-float", "spacer-index-object", "spacer-index-bool", "family-unknown-key",
         "family-extra-key",
         "primepair-p-negative", "primepair-p-zero", "freq-maxlen-0", "freq-maxlen-negative",
         "freq-words-none", "freq-word-longer-than-block", "freq-words-and-maxlen",
         "certify-pairs-one-power",
         "certify-pairs-reversed", "heights-n-0", "cocycle-n-negative",
         "correlate-exact-samples", "sarnak-N-0", "suspend-N-0", "primepair-N-negative",
         "cylinders-empty-second", "sarnak-splice-offset", "sarnak-center-and-value",
         "katok-not-half-spacered", "correlate-negative-seed", "katok-negative-seed",
         "correlate-negative-lag", "profile-range-reversed", "profile-default-range-empty", "certify-prefix-too-short",
         "pj-prefix-too-short", "certify-katok-default-depth", "pj-depth-past-prefix",
         "profile-window-past-prefix", "katok-scan-stage-too-shallow", "classify-max-order-1",
         "eigen-max-order-1", "katok-default-depth-26", "katok-huge-cut",
         "generalized-chacon-huge-cut", "custom-periodic-huge-depth", "correlate-negative-cap",
         "blocks-negative-cap", "heights-negative-cap"],
)
def test_malformed_input_exits_2(tmp_path, capsys, request, argv):
    for name, doc in MALFORMED_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert MALFORMED_MESSAGES.get(request.node.callspec.id, "") in err
    if request.node.callspec.id.endswith("negative-cap"):
        assert not (tmp_path / "out").exists()


# -- argv fuzzing ---------------------------------------------------------------


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


SMALL = _ints(-2, 9)
WORDS = st.sampled_from(["0", "1", "01", "10", "0,1", "110"])
PAIRS = st.sampled_from(["0:0", "0:1", "1:0", "01:10", "0", "0:1,1:1"])
RATIONAL = st.sampled_from(["1/2", "1/3", "2/3", "0", "1", "-1/2", "1/0"])
OBSERVABLE = st.sampled_from(["cyl:0", "cyl:01", "cyl:", "cyl:2", "eigen:1", "eigen:2",
                              "eigen:", "eigen:x", "sin:1"])
TWO = st.lists(SMALL, min_size=2, max_size=2)
FLAG = st.just([])  # a bare flag takes no value
# large powers spread the law past a shallow depth's enumeration: all tail
POWER = _ints(-1, 3) | _ints(4, 200)
JUNK = st.sampled_from(["x", "", "1/2", "0:1", "1..3", "2.5", "-0", "1e3"])

# every construction has depth <= 8, and every count is bounded by the
# strategies below, so one example runs in milliseconds
FUZZ_CONFIGS = [f"{name}:depth={d}" for name, top in
                (("chacon", 8), ("vnk", 8), ("generalized_chacon", 5), ("katok", 4))
                for d in range(top, 0, -1)] + ["chacon:depth=0", "chacon:size=3", "nope"]

ORBIT = {"--N": _ints(-2, 300), "--stage": SMALL, "--offset": SMALL}
# subcommand -> (required options, optional options)
FUZZ_COMMANDS = {
    "heights": ({"-n": SMALL}, {}),
    "blocks": ({"--stage": SMALL}, {"--start": SMALL, "--length": _ints(-2, 2000)}),
    "freq": ({"--stage": SMALL}, {"--words": WORDS, "--maxlen": _ints(-2, 4) | _ints(5, 20_000)}),
    "cocycle": ({"-n": SMALL}, {"-j": _ints(-1, 3), "--depth": _ints(-1, 6),
                                "--method": st.sampled_from(["convolution", "enumerate"])}),
    "pj": ({}, {"-j": POWER, "--depth": _ints(-1, 8), "--close-tail": FLAG}),
    "profile": ({}, {"--window": TWO, "--range": TWO}),
    "certify": ({}, {"--pairs": st.sampled_from(["1..3", "1:2", "2:2", "1:0", "3..1"]),
                     "--depth": _ints(-1, 8)}),
    "classify": ({}, {"--range": TWO, "--max-order": _ints(-1, 12)}),
    "eigen": ({}, {"--range": TWO, "--max-order": _ints(-1, 12)}),
    "correlate": ({"--stage": SMALL, "--w1": WORDS, "--w2": WORDS, "--lag": _ints(-2, 300)},
                  {"--method": st.sampled_from(["exact", "sampled"]),
                   "--samples": _ints(-1, 50), "--seed": SMALL}),
    "verify-pj": ({"-n": SMALL}, {"-j": POWER, "--cylinders": PAIRS,
                                  "--depth": _ints(-1, 6), "--scan-stage": SMALL}),
    "rigid-chacon": ({"--alpha": RATIONAL, "-n": SMALL},
                     {"--cylinders": PAIRS, "--scan-stage": SMALL,
                      "--powers": st.sampled_from(["1", "1,2", "0", "-1", "1,x"])}),
    "katok": ({"--alpha": RATIONAL, "-n": SMALL, "--ell": _ints(-1, 60),
               "--samples": _ints(-1, 50)},
              {"--cylinders": PAIRS, "--seed": SMALL, "--scan-stage": SMALL}),
    "sarnak": ({"--observable": OBSERVABLE, **ORBIT},
               {"--center": FLAG, "--center-value": RATIONAL, "--splice-suffix": SMALL,
                "--splice-ones": SMALL}),
    "primepair": ({"--observable": OBSERVABLE, "-p": SMALL, "-q": SMALL, **ORBIT},
                  {"--center-value": RATIONAL}),
    "suspend": ({"--observable": OBSERVABLE, "--K": SMALL, **ORBIT}, {"--i0": SMALL}),
}
COMMON = {"--cap": st.sampled_from(["0", "1", "50", "1000", "-1"]),
          "--format": st.sampled_from(["csv", "json"])}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    required, optional = FUZZ_COMMANDS[command]
    optional = {**optional, **COMMON}
    flags = list(required) + draw(st.lists(st.sampled_from(sorted(optional)), unique=True,
                                           max_size=3))
    options = []
    for flag in flags:
        value = draw({**required, **optional}[flag])
        options.append([flag, *value] if isinstance(value, list) else [flag, value])
    # now and then one malformation: a junk value, a dropped option or a stray token
    fault = draw(st.sampled_from([None] * 5 + ["junk", "drop", "stray"]))
    if fault and options:
        i = draw(st.integers(0, len(options) - 1))
        if fault == "junk":
            options[i] = [options[i][0], draw(JUNK)]
        elif fault == "drop":
            del options[i]
        else:
            options.append([draw(st.sampled_from(["--bogus", "7", "-h"]))])
    return [command, "--config", draw(st.sampled_from(FUZZ_CONFIGS))] + sum(options, [])


@settings(max_examples=500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzz_argv())
@example(argv=["heights", "--config", "big.json", "-n", "1"])
def test_argv_fuzz_exit_codes(tmp_path, argv):
    # every outcome is an exit code: 0 success, 2 input error, 3 refusal;
    # argparse's SystemExit counts, any other exception fails the test.
    # "big.json" names the BIG_SPACER document
    if "big.json" in argv:
        (tmp_path / "big.json").write_text(BIG_SPACER)
        argv = [str(tmp_path / "big.json") if a == "big.json" else a for a in argv]
    try:
        code = main(argv + ["--out", str(tmp_path)])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3), argv
