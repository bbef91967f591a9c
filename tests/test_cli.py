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
from koblab.geometry import Disc
from test_rounding import mp_disc


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
    # the disc is a model domain: the bracket holds atanh(1/2) and is the
    # closed form widened by its rounding bound e at depth 1/2 each way,
    # plus 4 ulps for the rounding of d - e and d + e and the step outward
    assert doc["lower"] <= mp_disc(0.0, 0.5) <= doc["upper"]
    e = Disc().exact_error(math.atanh(0.5), 0.5)
    assert doc["upper"] - doc["lower"] <= 2.0 * e + 4 * math.ulp(0.5)


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


def test_parser_shared_across_main_calls(tmp_path):
    """One parser serves every ``main`` call in a process; flags of one
    call do not leak into the next."""
    cfg = write_config(tmp_path, "disc.json", {"domain": {"kind": "disc"}})
    runs = [["distance", "--config", cfg, "--x", "[[0.1,0.2]]",
             "--y", "[[-0.3,0]]", "--label", "one", "--format", "json",
             "--seed", "3"],
            ["visibility-scan", "--config", cfg, "--p", "[[1,0]]",
             "--q", "[[-1,0]]", "--eps", "1e-1"]]

    def outputs(out, fresh):
        for argv in runs:
            if fresh:
                cli._build_parser.cache_clear()
            assert run_cli(argv + ["--out", str(out), "--reproducible"]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    shared = outputs(tmp_path / "shared", fresh=False)
    assert outputs(tmp_path / "fresh", fresh=True) == shared
    assert sorted(shared) == ["distance-one.json", "visibility-scan-run.csv",
                              "visibility-scan-run.json",
                              "visibility-scan-run.svg"]
    assert cli._build_parser() is cli._build_parser()


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


def test_geodesic_csv_boundary_distances_are_the_path_points(tmp_path):
    # the CSV's last column is the boundary distance of its own row's point,
    # and the JSON's min and max are those of that column
    from koblab.geometry import Ball

    cfg = write_config(tmp_path, "ball_pair.json", {
        "domain": {"kind": "ball", "n": 2}, "x": [[0.1, 0], [0, 0]],
        "y": [[0.5, 0.2], [0, -0.3]],
        "solver": {"control_points": 9, "max_iter": 400, "rel_tol": 1e-4}})
    out = tmp_path / "out"
    assert run_cli(["geodesic", "--config", cfg, "--out", str(out),
                    "--reproducible"]) == 0
    doc = json.loads((out / "geodesic-run.json").read_text())
    rows = [line.split(",") for line in
            (out / "geodesic-run.csv").read_text().splitlines()[1:]]
    dom = Ball(2)
    for row in rows:
        point = [complex(float(row[1]), float(row[2])),
                 complex(float(row[3]), float(row[4]))]
        assert row[5] == "%.17g" % dom.boundary_distance(point)
    deltas = [float(row[5]) for row in rows]
    assert doc["min_boundary_distance"] == min(deltas)
    assert doc["max_boundary_distance"] == max(deltas)


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


def test_bad_grid_exits_two(tmp_path, capsys):
    # a grid that is not a list of numbers is a usage error, as a bad
    # scalar flag is: exit 2 with a koblab: line, no traceback
    for eps in ("abc", "1e-3,x", '["a"]', "[null]"):
        assert run_cli(["case-bidisc", "--eps", eps, "--out", str(tmp_path),
                        "--reproducible"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("koblab:")
        assert "'eps'" in err or "grid" in err
    cfg = write_config(tmp_path, "grid.json", {"eps": ["1e-3", "a"]})
    assert run_cli(["case-bidisc", "--config", cfg, "--out", str(tmp_path),
                    "--reproducible"]) == 2
    assert "'eps'" in capsys.readouterr().err


BALL = {"kind": "ball", "n": 2}
DISTANCE = ["distance", "--x", "[[0,0],[0,0]]", "--y", "[[0.5,0],[0,0]]"]


@pytest.mark.parametrize("argv, config, needle", [
    (["k-point", "--eps", "1e-1"],
     {"domain": BALL, "p": [[1, 0], [0, 0]], "w_radius": "abc"}, "w_radius"),
    (["k-point", "--eps", "1e-1"],
     {"domain": BALL, "p": [[1, 0], [0, 0]], "w_radius": 0.3,
      "sphere_samples": None}, "sphere_samples"),
    (DISTANCE, {"domain": {"kind": "ball", "n": "abc"}}, "'n'"),
    (DISTANCE, {"domain": {"kind": "polydisc", "n": 2.7}}, "'n'"),
    (DISTANCE, {"domain": {"kind": "ellipsoid"}}, "axes"),
    (DISTANCE, {"domain": {"kind": "ellipsoid", "axes": [1, "x"]}}, "axes"),
    (["geodesic", "--x", "[[0,0]]", "--y", "[[0.5,0]]"],
     {"domain": {"kind": "disc"}, "solver": {"max_iter": "x"}}, "max_iter"),
    (["distance", "--x", '[["a",0]]', "--y", "[[0.5,0]]"],
     {"domain": {"kind": "disc"}}, "coordinate"),
    (["distance", "--x", '[0.5,"a"]', "--y", "[[0.5,0]]"],
     {"domain": {"kind": "disc"}}, "pair"),
    (DISTANCE, {"domain": {"kind": "ellipsoid", "axes": [1, math.inf]}},
     "axes"),
    (["geodesic", "--x", "[[0,0]]", "--y", "[[0.5,0]]"],
     {"domain": {"kind": "disc"}, "solver": {"rel_tol": math.nan}},
     "rel_tol"),
    (["geodesic", "--x", "[[0,0]]", "--y", "[[0.5,0]]"],
     {"domain": {"kind": "disc"}, "solver": {"rel_tol": 2}}, "rel_tol"),
    (["k-point", "--eps", "1e-1"],
     {"domain": BALL, "p": [[1, 0], [0, 0]], "w_radius": math.inf},
     "w_radius"),
    (["case-omega-psi", "--c", "inf"], {}, "'c'"),
    (["case-omega-psi", "--c", "nan"], {}, "'c'"),
    (["case-omega-psi", "--psi-form", "exp_neg_inv_log_pow",
      "--alpha", "nan"], {}, "'alpha'"),
    (["k-point", "--eps", "1e-1"],
     {"domain": BALL, "p": [[1, 0], [0, 0]], "w_radius": 0.3,
      "sphere_samples": -1}, "'sphere_samples'"),
    (["goldilocks", "--r", "1e-1"],
     {"domain": BALL, "extra_directions": -2}, "'extra_directions'"),
], ids=["w_radius-text", "sphere_samples-null", "n-text", "n-fractional",
        "axes-missing", "axes-text", "solver-max_iter-text",
        "coordinate-text", "coordinate-mixed", "axes-inf", "rel_tol-nan",
        "rel_tol-above-half", "w_radius-inf", "c-inf-flag", "c-nan-flag",
        "alpha-nan-flag", "sphere_samples-negative",
        "extra_directions-negative"])
def test_bad_config_value_exits_two(tmp_path, capsys, argv, config, needle):
    # a config value or flag of the wrong type, or not finite, is bad
    # input: exit 2 with a koblab: line naming the field, no traceback,
    # no hang and no JSON "Infinity"
    cfg = write_config(tmp_path, "bad.json", config)
    assert run_cli(argv + ["--config", cfg, "--out", str(tmp_path),
                           "--reproducible"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("koblab:") and needle in err
    assert not list(tmp_path.glob("*-run.*"))


@pytest.mark.parametrize("argv, domain", [
    (["distance", "--x", "[[0,0],[0.9,0]]", "--y", "[[0.5,0],[0.95,0]]"],
     {"kind": "disc"}),
    (["gromov", "--x", "[[0.5,0]]", "--y", "[[0,0.5]]", "--o", "[[0,0]]"],
     BALL),
    (["distance", "--x", "[[0,0]]", "--y", "[[0.5,0]]"],
     {"kind": "omega_psi"}),
    (["visibility-scan", "--p", "[[1,0],[0,0],[0,0]]", "--q",
      "[[-1,0],[0,0]]", "--eps", "1e-1"], BALL),
    (["sameheight", "--center", "[[0,0]]", "--radius", "0.3", "--delta",
      "1e-2", "--m-type", "2"], {"kind": "omega_psi"}),
], ids=["disc-two-coordinates", "ball-one-coordinate",
        "omega-psi-one-coordinate", "visibility-scan-mixed-dimensions",
        "sameheight-omega-psi-one-coordinate"])
def test_wrong_point_dimension_exits_two(tmp_path, capsys, argv, domain):
    # a point of the wrong dimension is rejected before any closed form
    # could drop or index past its coordinates
    cfg = write_config(tmp_path, "dim.json", {"domain": domain})
    assert run_cli(argv + ["--config", cfg, "--out", str(tmp_path),
                           "--reproducible"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("koblab:") and "dimension" in err


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


def test_recheck_rejects_a_crossing_of_one_ulp():
    # a certified lower may not exceed its upper by any amount
    problems = cli._recheck({"lower": 1.0,
                             "upper": math.nextafter(1.0, 0.0)})
    assert len(problems) == 1 and "exceeds upper" in problems[0]
    assert cli._recheck({"lower": 1.0, "upper": 1.0}) == []


def test_localize_sound_run_with_positive_overhead(tmp_path):
    # the D cap U lower and the D upper bound different distances, so a
    # positive C_emp is a measurement, not a crossing
    cfg = write_config(tmp_path, "ball.json", {"domain": {"kind": "ball",
                                               "n": 2}})
    out = tmp_path / "out"
    assert run_cli(["localize", "--config", cfg,
                    "--center", "[[0.5,0],[0,0]]", "--u-radius", "0.6",
                    "--v-radius", "0.3", "--pairs", "60", "--seed", "1",
                    "--out", str(out), "--reproducible"]) == 0
    rep = json.loads((out / "localize-run.json").read_text())["report"]
    # re-recorded (0x1.4b6c5b343fa40p-6 before) when the pair draws began
    # to read the outer end of the window ray exit, and (0.020228470950332533
    # before) when the Ball(2) closed-form upper was widened by its rounding
    # bound
    assert rep["fitted_parameters"]["C_emp"] == 0.020228470950327593
    for s in rep["samples"]:
        assert s["upper"] is None
        assert s["lower"] <= s["statistic"] == \
            s["inputs"]["local_lower"] - s["inputs"]["global_upper"]


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


@pytest.mark.parametrize("name", ["growth-fit", "goldilocks", "localize"])
def test_negative_seed_is_a_usage_error(name, tmp_path, capsys):
    cfg = write_config(tmp_path, "ball.json", {"domain": {"kind": "ball",
                                               "n": 2}})
    assert run_cli([name, "--config", cfg, *SUBCOMMAND_CASES[name],
                    "--seed", "-1", "--out", str(tmp_path / "out"),
                    "--reproducible"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("koblab: ") and "non-negative" in err
    assert not (tmp_path / "out").exists()


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


def test_case_omega_psi_params_record_matches_flat_keys(tmp_path):
    # one domain given as a params record and as flat keys: the same bytes,
    # and the payload's params echo the record
    record = {"psi": {"form": "exp_neg_c_over_x", "c": 2.5}, "chi1": 2.0,
              "chi2": 0.5, "cap_radius": 4.0}
    flat = {"c": 2.5, "chi1": 2.0, "chi2": 0.5, "cap_radius": 4.0}
    docs = []
    for name, cfg in (("record", {"params": record}), ("flat", flat)):
        path = write_config(tmp_path, f"{name}.json",
                            {**cfg, "eps": [1e-1, 1e-2]})
        out = tmp_path / name
        assert run_cli(["case-omega-psi", "--config", path, "--out", str(out),
                        "--reproducible"]) == 0
        docs.append((out / "case-omega-psi-run.json").read_bytes())
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["params"] == record


@pytest.mark.parametrize("cfg", [
    {"domain": {"kind": "omega_psi", "psi": {"form": "exp_neg_c_over_x",
                                             "c": 2.0}, "chi1": 2.0}},
    {"params": {"psi": {"form": "exp_neg_c_over_x", "c": 2.0}, "chi1": 2.0}},
    {"psi": {"c": 2.0}, "chi1": 2.0},
], ids=["domain", "params", "flat"])
def test_case_omega_psi_reads_config_and_flags_override(tmp_path, cfg):
    # the config's profile is run, and an inline --c overrides its c
    path = write_config(tmp_path, "cfg.json", {**cfg, "eps": [1e-1]})
    for flags, c in (([], 2.0), (["--c", "3.0"], 3.0)):
        out = tmp_path / f"c{c}"
        assert run_cli(["case-omega-psi", "--config", path, *flags,
                        "--out", str(out), "--reproducible"]) == 0
        params = json.loads((out / "case-omega-psi-run.json").read_text())[
            "params"]
        assert params["psi"] == {"form": "exp_neg_c_over_x", "c": c}
        assert params["chi1"] == 2.0


def test_case_omega_psi_rejects_another_domain_kind(tmp_path, capsys):
    path = write_config(tmp_path, "ball.json",
                        {"domain": {"kind": "ball", "n": 2}})
    assert run_cli(["case-omega-psi", "--config", path,
                    "--out", str(tmp_path / "out"), "--reproducible"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("koblab: ") and "omega_psi" in err


@pytest.mark.parametrize("psi", [{"form": "exp_neg_c_over_x"},
                                 {"form": "exp_neg_inv_log_pow", "alpha": 2.0}],
                         ids=["exp_neg_c_over_x", "exp_neg_inv_log_pow"])
def test_distance_at_tiny_re_z1_on_omega_psi(tmp_path, psi):
    # psi and psi' underflow to 0 at Re z1 = 1e-200; the bracket is finite
    path = write_config(tmp_path, "psi.json",
                        {"domain": {"kind": "omega_psi", "psi": psi}})
    out = tmp_path / "out"
    assert run_cli(["distance", "--config", path,
                    "--x", "[[1e-200,0.5],[0.5,0]]",
                    "--y", "[[0,-0.5],[0.5,0]]",
                    "--out", str(out), "--reproducible"]) == 0
    doc = json.loads((out / "distance-run.json").read_text())
    assert 0.0 < doc["lower"] <= doc["upper"] < math.inf


@pytest.mark.parametrize("cfg", [{"params": [1, 2]}, {"params": "exp"},
                                 {"params": None}, {"psi": "exp"}])
def test_case_omega_psi_rejects_non_object_records(tmp_path, capsys, cfg):
    path = write_config(tmp_path, "bad.json", cfg)
    assert run_cli(["case-omega-psi", "--config", path,
                    "--out", str(tmp_path / "out"), "--reproducible"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("koblab: ") and "must be a JSON object" in err


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


@pytest.mark.parametrize("field, value", [
    ("label", {"a": 1}), ("label", 7), ("output-dir", 5), ("output-dir", [])])
def test_config_label_and_output_dir_must_be_strings(tmp_path, monkeypatch,
                                                     capsys, field, value):
    # a label or output directory of another type is bad input: exit 2
    # with a koblab: line naming the field, and nothing written
    cfg = write_config(tmp_path, "bad.json", {
        "domain": {"kind": "disc"}, "x": [[0, 0]], "y": [[0.5, 0]],
        field: value})
    monkeypatch.chdir(tmp_path)
    assert run_cli(["distance", "--config", cfg, "--reproducible"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("koblab:") and repr(field) in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_output_goes_to_config_output_dir(tmp_path):
    dest = tmp_path / "dest"
    cfg = write_config(tmp_path, "cfgdir.json", {
        "domain": {"kind": "disc"}, "x": [[0, 0]], "y": [[0.5, 0]],
        "output-dir": str(dest), "format": "json"})
    assert run_cli(["distance", "--config", cfg, "--reproducible"]) == 0
    assert (dest / "distance-run.json").exists()
    assert not (dest / "distance-run.csv").exists()


# One small --reproducible run per subcommand, on Ball(2) with the light
# solver wherever a domain is needed; case-omega-psi runs its own domain,
# Omega_psi, and refuses a domain record of another kind.  Keyed by name: a
# subcommand added to the registry without a case here fails
# test_every_subcommand_runs.
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
    domain = {"kind": "omega_psi"} if name == "case-omega-psi" else \
        {"kind": "ball", "n": 2}
    cfg = write_config(tmp_path, "domain.json", {
        "domain": domain,
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
