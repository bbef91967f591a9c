"""End-to-end checks for the command-line front end.

Most tests call ``main`` in-process with a temp output directory; a couple
go through a real subprocess to cover the console entry point.  The
reproducibility test runs the same command twice and compares bytes.
"""

import json
import math
import subprocess
import sys

import pytest

from koblab import cli


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def disc_pair_config(tmp_path):
    return write_config(tmp_path, "disc_pair.json", {
        "domain": {"kind": "disc"}, "x": [[0, 0]], "y": [[0.5, 0]]})


def run_cli(argv):
    return cli.main(argv)


def test_distance_disc_pair_bracket(tmp_path):
    cfg = disc_pair_config(tmp_path)
    out = tmp_path / "out"
    code = run_cli(["distance", "--config", cfg, "--out", str(out),
                    "--reproducible"])
    assert code == 0
    doc = json.loads((out / "distance-run.json").read_text())
    assert doc["lower"] >= 0.3465
    assert doc["upper"] <= 0.5504
    assert doc["lower"] <= doc["upper"]
    assert doc["schema"] == "koblab-report/1"
    # the disc is a model domain, so both ends sit on atanh(1/2)
    assert doc["lower"] == pytest.approx(math.atanh(0.5), abs=1e-15)


def test_distance_coincident_points_is_zero(tmp_path):
    cfg = write_config(tmp_path, "same.json", {
        "domain": {"kind": "disc"}, "x": [[0.3, 0.1]], "y": [[0.3, 0.1]]})
    out = tmp_path / "out"
    assert run_cli(["distance", "--config", cfg, "--out", str(out),
                    "--reproducible"]) == 0
    doc = json.loads((out / "distance-run.json").read_text())
    assert doc["lower"] == 0.0
    assert doc["upper"] == 0.0


def test_inline_flags_override_config(tmp_path):
    cfg = disc_pair_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["distance", "--config", cfg, "--y", "[[0.9,0]]",
                    "--out", str(out), "--reproducible"]) == 0
    doc = json.loads((out / "distance-run.json").read_text())
    assert doc["lower"] == pytest.approx(math.atanh(0.9), abs=1e-12)


def test_case_bidisc_csv_has_equal_lengths_flag(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["case-bidisc", "--eps", "1e-4", "--out", str(out),
                    "--reproducible"]) == 0
    csv = (out / "case-bidisc-run.csv").read_text()
    lines = csv.strip().splitlines()
    assert lines[0] == "grid,lower,upper,statistic,flags"
    assert len(lines) == 2
    assert "equal-lengths" in lines[1]
    assert lines[1].startswith("0.0001,")


def test_reproducible_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "disc.json", {"domain": {"kind": "disc"}})
    args = ["visibility-scan", "--config", cfg, "--p", "[[1,0]]",
            "--q", "[[-1,0]]", "--eps", "1e-1,1e-2", "--seed", "11",
            "--reproducible"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    for name in ("visibility-scan-run.json", "visibility-scan-run.csv",
                 "visibility-scan-run.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # and no timestamp anywhere in the frozen document
    doc = json.loads((out1 / "visibility-scan-run.json").read_text())
    assert "metadata" not in doc


def test_timestamp_metadata_only_without_reproducible(tmp_path):
    cfg = disc_pair_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["distance", "--config", cfg, "--out", str(out),
                    "--label", "stamped"]) == 0
    doc = json.loads((out / "distance-stamped.json").read_text())
    assert "metadata" in doc and "created" in doc["metadata"]


def test_custom_label_names_files(tmp_path):
    cfg = disc_pair_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["distance", "--config", cfg, "--out", str(out),
                    "--label", "mylabel"]) == 0
    assert (out / "distance-mylabel.json").exists()
    assert (out / "distance-mylabel.csv").exists()


def test_format_selection(tmp_path):
    cfg = disc_pair_config(tmp_path)
    out_j = tmp_path / "json_only"
    assert run_cli(["distance", "--config", cfg, "--out", str(out_j),
                    "--reproducible", "--format", "json"]) == 0
    assert (out_j / "distance-run.json").exists()
    assert not (out_j / "distance-run.csv").exists()
    out_c = tmp_path / "csv_only"
    assert run_cli(["distance", "--config", cfg, "--out", str(out_c),
                    "--reproducible", "--format", "csv"]) == 0
    assert not (out_c / "distance-run.json").exists()
    assert (out_c / "distance-run.csv").exists()


def test_geodesic_csv_lists_path_points(tmp_path):
    cfg = disc_pair_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["geodesic", "--config", cfg, "--out", str(out),
                    "--reproducible"]) == 0
    doc = json.loads((out / "geodesic-run.json").read_text())
    csv = (out / "geodesic-run.csv").read_text()
    lines = csv.strip().splitlines()
    assert lines[0] == "index,re0,im0,boundary_distance"
    assert len(lines) == len(doc["points"]) + 1
    assert doc["distance"]["lower"] <= doc["distance"]["upper"]


def test_svg_written_for_grid_commands_only(tmp_path):
    cfg = write_config(tmp_path, "ball.json", {"domain": {"kind": "ball",
                                               "n": 2}})
    out = tmp_path / "out"
    assert run_cli(["localize", "--config", cfg,
                    "--center", "[[1,0],[0,0]]", "--u-radius", "0.4",
                    "--v-radius", "0.2", "--pairs", "5",
                    "--out", str(out), "--reproducible"]) == 0
    assert (out / "localize-run.json").exists()
    assert not (out / "localize-run.svg").exists()
    assert run_cli(["goldilocks", "--config", cfg, "--r", "1e-1,1e-2",
                    "--out", str(out), "--reproducible"]) == 0
    svg = (out / "goldilocks-run.svg").read_text()
    assert svg.startswith("<svg")
    assert "verdict" in svg


def test_usage_errors_exit_two(tmp_path, capsys):
    cfg = disc_pair_config(tmp_path)
    # unknown flag
    assert run_cli(["distance", "--config", cfg, "--bogus", "1"]) == 2
    assert "bogus" in capsys.readouterr().err
    # missing subcommand
    assert run_cli([]) == 2
    assert "subcommand" in capsys.readouterr().err
    # malformed point JSON
    code = run_cli(["distance", "--config", cfg, "--y", "[[0.5"])
    assert code == 2
    # missing config file
    assert run_cli(["distance", "--config",
                    str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    # config without a domain record
    bare = write_config(tmp_path, "bare.json", {"x": [[0, 0]],
                                                "y": [[0.5, 0]]})
    assert run_cli(["distance", "--config", bare]) == 2
    assert "domain" in capsys.readouterr().err
    # config that is not an object
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2,3]")
    assert run_cli(["distance", "--config", str(arr)]) == 2
    # unknown domain kind
    weird = write_config(tmp_path, "weird.json", {
        "domain": {"kind": "moebius"}, "x": [[0, 0]], "y": [[0.5, 0]]})
    assert run_cli(["distance", "--config", weird]) == 2
    assert "moebius" in capsys.readouterr().err
    # bad format value from the config file
    fmt = write_config(tmp_path, "fmt.json", {
        "domain": {"kind": "disc"}, "x": [[0, 0]], "y": [[0.5, 0]],
        "format": "parquet"})
    assert run_cli(["distance", "--config", fmt]) == 2
    assert "parquet" in capsys.readouterr().err


def test_point_outside_domain_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "outside.json", {
        "domain": {"kind": "disc"}, "x": [[0, 0]], "y": [[2, 0]]})
    assert run_cli(["distance", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("koblab:")


def test_unwritable_output_dir_exits_two(tmp_path, capsys):
    cfg = disc_pair_config(tmp_path)
    clash = tmp_path / "clash"
    clash.write_text("a file, not a directory")
    assert run_cli(["distance", "--config", cfg, "--out", str(clash),
                    "--reproducible"]) == 2
    assert "write" in capsys.readouterr().err or True


def poison_distance(monkeypatch, bad_builder):
    """Swap the distance builder so the emission-time recheck has
    something to catch."""
    command = cli._COMMANDS["distance"]._replace(build=bad_builder)
    monkeypatch.setitem(cli._COMMANDS, "distance", command)


def test_recheck_rejects_inverted_bracket(tmp_path, capsys, monkeypatch):
    def bad_builder(args, cfg):
        return {"payload": {"lower": 2.0, "upper": 1.0}}
    poison_distance(monkeypatch, bad_builder)
    cfg = disc_pair_config(tmp_path)
    out = tmp_path / "out"
    code = run_cli(["distance", "--config", cfg, "--out", str(out),
                    "--reproducible"])
    assert code == 3
    err = capsys.readouterr().err
    assert "recheck" in err
    assert not (out / "distance-run.json").exists()


def test_recheck_rejects_nan_bracket(tmp_path, capsys, monkeypatch):
    def bad_builder(args, cfg):
        return {"payload": {"rows": [{"lower": float("nan"),
                                      "upper": 1.0}]}}
    poison_distance(monkeypatch, bad_builder)
    cfg = disc_pair_config(tmp_path)
    code = run_cli(["distance", "--config", cfg,
                    "--out", str(tmp_path / "out"), "--reproducible"])
    assert code == 3
    assert "NaN" in capsys.readouterr().err


def test_recheck_rejects_infinite_bracket(tmp_path, capsys, monkeypatch):
    # an infinite side is no certificate, and json would write "Infinity"
    def bad_builder(args, cfg):
        return {"payload": {"lower": 0.0, "upper": float("inf")}}
    poison_distance(monkeypatch, bad_builder)
    cfg = disc_pair_config(tmp_path)
    out = tmp_path / "out"
    code = run_cli(["distance", "--config", cfg, "--out", str(out),
                    "--reproducible"])
    assert code == 3
    err = capsys.readouterr().err
    assert "soundness recheck failed" in err and "upper is inf" in err
    assert not (out / "distance-run.json").exists()


def test_seed_changes_sampled_output(tmp_path):
    cfg = write_config(tmp_path, "ball.json", {"domain": {"kind": "ball",
                                               "n": 2}})
    docs = []
    for seed in ("1", "2"):
        out = tmp_path / ("s" + seed)
        assert run_cli(["growth-fit", "--config", cfg, "--samples", "10",
                        "--seed", seed, "--out", str(out),
                        "--reproducible"]) == 0
        docs.append(json.loads((out / "growth-fit-run.json").read_text()))
    g1 = [s["grid_value"] for s in docs[0]["report"]["samples"]]
    g2 = [s["grid_value"] for s in docs[1]["report"]["samples"]]
    assert g1 != g2
    assert docs[0]["seed"] == 1 and docs[1]["seed"] == 2


def test_threads_accepted_only_as_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "disc.json", {"domain": {"kind": "disc"}})
    args = ["k-point", "--config", cfg, "--p", "[[0.5,0]]",
            "--w-radius", "0.3", "--eps", "1e-1,1e-2", "--reproducible",
            "--out", str(tmp_path / "out")]
    assert run_cli(args + ["--threads", "1"]) == 0
    capsys.readouterr()
    assert run_cli(args + ["--threads", "2"]) == 2
    assert "threads" in capsys.readouterr().err


def test_case_omega_psi_inline_profile(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["case-omega-psi", "--psi-form", "exp_neg_c_over_x",
                    "--c", "3.141592653589793", "--eps", "1e-1,1e-2",
                    "--out", str(out), "--reproducible"]) == 0
    doc = json.loads((out / "case-omega-psi-run.json").read_text())
    assert doc["params"]["psi"]["form"] == "exp_neg_c_over_x"
    rep = doc["report"]
    assert rep["probe_kind"] == "omega-psi-case"
    assert rep["verdict"] in ("consistent", "inconclusive")
    # rows either bracket properly or decline to claim an upper (null)
    for row in rep["samples"]:
        assert row["upper"] is None or row["lower"] <= row["upper"]


def test_balls_check_margin_positive(tmp_path):
    cfg = write_config(tmp_path, "ball.json", {"domain": {"kind": "ball",
                                               "n": 2}})
    out = tmp_path / "out"
    assert run_cli(["balls-check", "--config", cfg,
                    "--q", "[[0,0],[0,0]]", "--z", "[[0.3,0],[0,0.1]]",
                    "--r", "0.5", "--out", str(out),
                    "--reproducible"]) == 0
    doc = json.loads((out / "balls-check-run.json").read_text())
    assert doc["holds"] is True
    assert doc["margin"] > 0.0
    csv = (out / "balls-check-run.csv").read_text()
    assert csv.splitlines()[0] == "holds,margin"


def test_console_entry_point_subprocess(tmp_path):
    cfg = disc_pair_config(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "koblab.cli", "distance", "--config", cfg,
         "--out", str(out), "--reproducible"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    listed = [line for line in proc.stdout.splitlines() if line]
    assert any(line.endswith("distance-run.json") for line in listed)
    assert (out / "distance-run.json").exists()


def test_help_documents_csv_columns(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["case-bidisc", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "grid,lower,upper,statistic,flags" in text
    with pytest.raises(SystemExit):
        cli.main(["geodesic", "--help"])
    text = capsys.readouterr().out
    assert "boundary_distance" in text


def test_output_goes_to_config_output_dir(tmp_path):
    dest = tmp_path / "dest"
    cfg = write_config(tmp_path, "cfgdir.json", {
        "domain": {"kind": "disc"}, "x": [[0, 0]], "y": [[0.5, 0]],
        "output-dir": str(dest), "format": "json"})
    assert run_cli(["distance", "--config", cfg, "--reproducible"]) == 0
    assert (dest / "distance-run.json").exists()
    assert not (dest / "distance-run.csv").exists()


# One small --reproducible run per subcommand, on Ball(2) with the light
# solver wherever a domain is needed.  Keyed by name: a subcommand added to
# the registry without a case here fails test_every_subcommand_runs.
ORIGIN, NEAR = "[[0,0],[0,0]]", "[[0.3,0],[0,0.1]]"
SUBCOMMAND_CASES = {
    "distance": ["--x", ORIGIN, "--y", NEAR],
    "geodesic": ["--x", ORIGIN, "--y", NEAR],
    "gromov": ["--x", "[[0.5,0],[0,0]]", "--y", "[[0,0],[0.5,0]]",
               "--o", ORIGIN],
    "visibility-scan": ["--p", "[[1,0],[0,0]]", "--q", "[[-1,0],[0,0]]",
                        "--eps", "1e-1,1e-2"],
    "k-point": ["--p", "[[1,0],[0,0]]", "--w-radius", "0.3",
                "--eps", "1e-1,1e-2"],
    "growth-fit": ["--samples", "10"],
    "goldilocks": ["--r", "1e-1,1e-2"],
    "localize": ["--center", "[[1,0],[0,0]]", "--u-radius", "0.4",
                 "--v-radius", "0.2", "--pairs", "5"],
    "case-bidisc": ["--eps", "1e-3,1e-4"],
    "case-omega-psi": ["--psi-form", "exp_neg_c_over_x",
                       "--c", "3.141592653589793", "--eps", "1e-1,1e-2"],
    "balls-check": ["--q", ORIGIN, "--z", NEAR, "--r", "0.5"],
    "sameheight": ["--center", "[[1,0],[0,0]]", "--radius", "0.5",
                   "--delta", "1e-2", "--m-type", "2"],
}


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_every_subcommand_runs(name, tmp_path, capsys):
    command = cli._COMMANDS[name]
    cfg = write_config(tmp_path, "ball.json", {
        "domain": {"kind": "ball", "n": 2},
        "solver": {"control_points": 9, "max_iter": 400, "rel_tol": 1e-4}})
    out = tmp_path / "out"
    assert run_cli([name, "--config", cfg, *SUBCOMMAND_CASES[name],
                    "--out", str(out), "--reproducible"]) == 0
    assert (out / f"{name}-run.json").exists()
    assert (out / f"{name}-run.csv").exists()
    assert (out / f"{name}-run.svg").exists() == command.svg
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"])
    assert exc.value.code == 0
    assert " ".join(command.csv_doc.split()) in \
        " ".join(capsys.readouterr().out.split())
