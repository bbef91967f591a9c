"""The public surface: every exported name resolves, and the benchmark's
per-layer tracer still finds each koblab layer it wraps.

``bench/spans.py`` rebinds koblab functions by name, so deleting or renaming
one would quietly drop its layer from the traced benchmark.  These tests
read the tracer's patch plan against this tree; they change nothing under
``bench/``.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import koblab

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
MODULES = ["koblab"] + sorted(
    m.name for m in pkgutil.iter_modules(koblab.__path__, "koblab."))

# layer name -> (module, function) whose original the layer's span wraps
LAYERS = {
    "metric.pair_tube": ("metric", "pair_tube_bound"),
    "metric.bracket": ("metric", "distance_bracket"),
    "metric.lower_bound": ("metric", "distance_lower_bound_detailed"),
    "solver.solve": ("solver", "solve_geodesic"),
    "cli": ("cli", "main"),
    "svg": ("svg", "render_report_svg"),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_bench_tracer_patches_and_restores(monkeypatch, tmp_path):
    for name in MODULES:
        importlib.import_module(name)
    monkeypatch.syspath_prepend(BENCH)
    tracer = importlib.import_module("spans").Tracer()

    with tracer.installed():
        targets = tracer._targets
        assert all(getattr(owner, attr) is wrapper
                   for owner, attr, _, wrapper in targets)
        # one traced command runs the cli, bracket, lower-bound and tube spans
        config = tmp_path / "ellipsoid.json"
        config.write_text('{"domain": {"kind": "ellipsoid", "axes": [1, 2]}}')
        assert koblab.cli.main([
            "distance", "--config", str(config), "--x", "[[0.5,0],[0,0]]",
            "--y", "[[-0.5,0],[0,0.5]]", "--out", str(tmp_path),
            "--reproducible"]) == 0
    assert all(getattr(owner, attr) is original
               for owner, attr, original, _ in targets)

    originals = {original for _, _, original, _ in targets}
    for layer, (module, function) in LAYERS.items():
        fn = getattr(importlib.import_module("koblab." + module), function)
        assert fn in originals, f"no patch site for layer {layer}"
    # the geometry layers wrap each public primitive where it is defined,
    # on Domain; a primitive moved or renamed there would drop its numbers
    sites = {(owner, attr) for owner, attr, _, _ in targets}
    for attr in importlib.import_module("spans").GEOMETRY_METHODS:
        assert (koblab.geometry.Domain, attr) in sites, \
            f"no patch site for layer geometry.{attr}"
    for layer in ("cli", "metric.bracket", "metric.lower_bound",
                  "metric.pair_tube"):
        assert tracer.calls[layer] >= 1, layer


NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None          # any scipy import now fails
import koblab.cli
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
codes = [koblab.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_koblab_runs_without_scipy(tmp_path):
    # a fresh interpreter in which scipy cannot be imported: koblab imports
    # none of it and runs distance on the ellipsoid and on both Omega_psi
    # profiles, and the Omega_psi case study
    domains = {"ellipsoid": {"kind": "ellipsoid", "axes": [1, 2]},
               "exp": {"kind": "omega_psi",
                       "psi": {"form": "exp_neg_c_over_x", "c": 3.14159}},
               "logpow": {"kind": "omega_psi",
                          "psi": {"form": "exp_neg_inv_log_pow",
                                  "alpha": 2.0}}}
    argvs = []
    for name, domain in domains.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"domain": domain}))
        argvs.append(["distance", "--config", str(config),
                      "--x", "[[0,0.5],[0.05,0]]", "--y", "[[0,-0.5],[0.3,0]]",
                      "--out", str(tmp_path / name), "--reproducible"])
    argvs.append(["case-omega-psi", "--eps", "1e-1,1e-2",
                  "--out", str(tmp_path / "case"), "--reproducible"])
    src = os.path.join(os.path.dirname(BENCH), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(argvs)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"loaded": [], "codes": [0, 0, 0, 0]}
