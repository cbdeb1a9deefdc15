import csv
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import rankone
from rankone.cli import main, replay_manifest, run_argv


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


def test_classify_and_eigen(tmp_path, capsys):
    code, _ = run(["classify", "--config", "vnk:depth=12"], tmp_path)
    assert code == 0 and "ODOMETER" in capsys.readouterr().out
    code, _ = run(["eigen", "--config", "vnk:depth=12", "--range", "3", "10"], tmp_path)
    rows = read_csv(tmp_path / "eigen.csv")
    assert rows[1:] == [["2"], ["4"]]


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


def test_exit_codes():
    assert main(["heights", "--config", "chacon:depth=3", "-n", "9"]) == 2
    assert main(["classify", "--config", "generalized_chacon:depth=8"]) == 3
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 2


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


@pytest.mark.parametrize(
    "argv",
    [
        ["heights", "--config", "{tmp}/missing.json", "-n", "2"],
        ["heights", "--config", "chacon:depth=x", "-n", "2"],
        ["certify", "--config", "chacon:depth=30", "--pairs", "1:x", "--depth", "6"],
        ["heights", "--config", "{tmp}/list.json", "-n", "2"],
        ["blocks", "--config", "chacon:depth=6", "--stage", "3", "--start", "0"],
        ["rigid-chacon", "--config", "generalized_chacon:depth=8", "--alpha", "1/2", "-n", "5",
         "--powers", "1,x"],
    ],
    ids=["missing-config", "bad-family-arg", "bad-pairs", "list-config", "start-0", "bad-powers"],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv):
    (tmp_path / "list.json").write_text(json.dumps([{"family": "chacon", "depth": 5}]))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
