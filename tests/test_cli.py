import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokesgreen import __main__ as sg_main
from stokesgreen import acceptance, cli, system
from stokesgreen.acceptance import AcceptanceSuite, CriterionResult
from stokesgreen.cli import (
    ESTIMATES,
    ExperimentConfig,
    PRESET_CONFIGS,
    Pipeline,
    VALID_ESTIMATES,
    main,
    run_experiment,
    verify,
)
from stokesgreen.coefficients import (
    CoefficientField,
    adjoint_field,
    coercivity_lower_bound,
    constant_identity,
)
from stokesgreen.domain import build_domain, center_pole
from stokesgreen.errors import ConfigError, DomainError, SolverError

from conftest import random_elliptic_tensor

DATA = Path(__file__).parent / "data"
NAN = float("nan")
SRC = Path(__file__).parent.parent / "src"
BASE = {
    "domain": {"kind": "box", "extent": [1.0, 1.0, 1.0], "h": 0.125},
    "coefficients": {"kind": "identity"},
    "estimates": [],
}


def make_config(tmp_path, **overrides):
    raw = dict(BASE)
    raw.update(overrides)
    raw.setdefault("out", str(tmp_path / "out"))
    return ExperimentConfig.from_dict(raw)


# -- config validation -----------------------------------------------------------


def test_config_roundtrip(tmp_path):
    cfg = make_config(tmp_path, estimates=["poincare"], seed=7)
    path = tmp_path / "config.json"
    path.write_text(cfg.canonical())
    back = ExperimentConfig.from_file(path)
    assert back.digest() == cfg.digest()
    assert back.estimates == ["poincare"]


def test_invalid_estimate_id_rejected_before_solving(tmp_path):
    with pytest.raises(ConfigError):
        make_config(tmp_path, estimates=["T9-x"])


MALFORMED = [
    {},  # missing domain
    {"domain": "box"},  # wrong type
    {"domain": {"extent": [1, 1, 1], "h": 0.1}},  # missing kind
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "estimates": "decay"},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "poles": 7},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "poles": [[1, 2]]},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "eps_sweep": [-1]},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "R0": 2.0},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "seed": "zero"},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "solver": {"tol": -1}},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "bogus_field": 1},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "preset": "huge"},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125},
     "solver": {"method": "direct"}},  # never read by any solve
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "solver": {"max_iter": 5}},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "solver": {"c_s": 0}},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "out": 5},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125},
     "memory_budget_mb": "big", "preset": "smoke"},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "fixture_dir": 7},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125}, "poles": [["a", "b", "c"]]},
    {"domain": {"kind": "box", "extent": [1, 1, 1], "h": 0.125},
     "poles": [[0.3, 0.3, 0.3], [0.7, 0.7, 0.7]]},  # one explicit pole at most
]


@pytest.mark.parametrize("raw", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_config_corpus(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_malformed_configs_exit_code_2(tmp_path):
    for i, raw in enumerate(MALFORMED):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    assert main(["run", "--config", str(broken)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


# every field of the config, and the keys inside 'domain', 'solver' and
# 'coefficients' that the 8^3 decay config sets, each set to every value below
PROBE_KEYS = [*ExperimentConfig.__dataclass_fields__, "domain.kind", "domain.extent",
              "domain.h", "solver.tol", "solver.c_s", "coefficients.kind"]
PROBE_VALUES = ["x", -1, 0, 1e9, None, [], {}, [1, 2], True, {"kind": "nope"},
                ["a", "b", "c"], float("nan")]
# the only probe cases that are valid configs; the 8^3 decay fit has too few
# radii (exit 1), and c_s = 1e9 stalls the solver (exit 3)
PROBE_VALID = {("estimates", "[]"), ("solver", "{}"),
               ("seed", "0"), ("memory_budget_mb", "null"), ("fixture_dir", '"x"'),
               ("fixture_dir", "null"), ("preset", "null"), ("out", '"x"'),
               ("solver.tol", "1000000000.0"), ("solver.c_s", "1000000000.0")}


def _run_config(path, raw):
    path.write_text(json.dumps(raw))
    return main(["run", "--config", str(path)])


def test_malformed_field_probe_exits_2_and_never_raises(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a relative 'out' lands
    codes = {}
    for key in PROBE_KEYS:
        for value in PROBE_VALUES:
            raw = dict(BASE, estimates=["decay"], out=str(tmp_path / "out"),
                       solver={"tol": 1e-9, "c_s": 0.1})
            head, _, leaf = key.rpartition(".")
            if head:
                raw[head] = dict(raw[head], **{leaf: value})
            else:
                raw[key] = value
            codes[key, json.dumps(value)] = _run_config(tmp_path / "probe.json", raw)
    valid = {case: code for case, code in codes.items() if case in PROBE_VALID}
    assert len(codes) == 18 * 12 and len(valid) == len(PROBE_VALID)
    assert {case for case, code in codes.items() if code != 2} == PROBE_VALID
    assert set(valid.values()) <= {0, 1, 3}


def test_malformed_descriptors_exit_2(tmp_path):
    # each builder's own errors, and a missing file, are config errors
    missing = str(tmp_path / "missing.bin")
    box = BASE["domain"]
    for domain, coefficients in [
        ({"kind": "file", "path": missing}, {"kind": "identity"}),
        (box, {"kind": "file", "path": missing}),
        ({"kind": "lshape", "extent": [1, 1, 1], "notch": 5, "h": 0.125}, {"kind": "identity"}),
        (box, {"kind": "layered", "breaks": [-1.0, 0.5], "scales": [1.0], "lam": 0.5}),
        ({"kind": "ball", "radius": 0.25, "h": 0.125}, {"kind": "identity"}),  # below 4h
        # values every comparison must fail, not pass: NaN, a bool, a period below h
        ({"kind": "lshape", "extent": [1, 1, 1], "notch": [[NAN] * 3, [1, 1, 1]], "h": 0.125},
         {"kind": "identity"}),
        (box, {"kind": "layered", "breaks": [-1.0, NAN], "scales": [1.0, 0.5], "lam": 0.5}),
        (box, {"kind": "checkerboard", "period": 1e-300, "lam": 0.5}),
        ({"kind": "ball", "radius": True, "h": 0.125}, {"kind": "identity"}),
    ]:
        raw = dict(BASE, domain=domain, coefficients=coefficients, out=str(tmp_path / "out"))
        assert _run_config(tmp_path / "bad.json", raw) == 2, raw


LSHAPE = {"kind": "lshape", "extent": [1, 1, 1], "notch": [[0.5, 0.5, 0.5], [1, 1, 1]],
          "h": 0.125}
# configs that validate field by field but cannot run; "auto" puts both
# poles at (0.5625, 0.5625, 0.5625), in the notch, and so does the symmetry
# runner its boundary pole, while the caccioppoli runner's interior centre
# is (0.7, 0.7, 0.7); the coefficient file holds a 16^3 grid
UNRUNNABLE = {
    "pole-outside-lshape": {"domain": LSHAPE, "poles": [[0.8, 0.8, 0.8]]},
    "auto-poles-on-lshape": {"domain": LSHAPE, "poles": "auto"},
    "symmetry-pole-on-lshape": {"domain": LSHAPE, "poles": [[0.3, 0.3, 0.3]],
                                "estimates": ["symmetry"]},
    "caccioppoli-centre-on-lshape": {"domain": LSHAPE, "poles": [[0.3, 0.3, 0.3]],
                                     "estimates": ["caccioppoli"]},
    "eps-below-2h": {"eps_sweep": [0.1]},
    "eps-above-1": {"eps_sweep": [1, 2]},
    "coefficient-grid": {"coefficients": {"kind": "file", "path": "coeffs16.bin"}},
}


@pytest.mark.parametrize("case", sorted(UNRUNNABLE))
def test_config_that_cannot_run_exits_2_from_every_command(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    constant_identity(build_domain(dict(BASE["domain"], h=0.0625))).export("coeffs16.bin")
    raw = {**BASE, "estimates": ["representation"], "out": "out", **UNRUNNABLE[case]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    for command in ("run", "export"):
        assert main([command, "--config", str(path)]) == 2, command
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ConfigError: "), line
    assert not (tmp_path / "out").exists()  # found before anything is written
    if case == "coefficient-grid":  # a fixture whose stored config has the same fault
        fdir = tmp_path / "fixture"
        fdir.mkdir()
        (fdir / "config.json").write_text(json.dumps(raw))
        path.write_text(json.dumps(dict(BASE, fixture_dir=str(fdir), out="verify")))
        assert main(["verify", "--config", str(path)]) == 2


def test_library_errors_exit_with_their_code_from_main(tmp_path, monkeypatch, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(BASE, estimates=["representation"],
                                    out=str(tmp_path / "out"))))

    def fail(error):
        def compute_green(*args, **kwargs):
            raise error("injected")
        return compute_green

    for error, code in ((DomainError, 1), (SolverError, 3)):
        monkeypatch.setattr(cli, "compute_green", fail(error))
        for command in ("export", "run"):
            assert main([command, "--config", str(path)]) == code, (error, command)
            assert capsys.readouterr().err == f"error: {error.__name__}: injected\n"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == f"{error.__name__}: injected"


def test_nan_coefficients_file_exits_2(tmp_path):
    path = tmp_path / "coeffs.bin"
    constant_identity(build_domain(BASE["domain"])).export(path)
    raw = np.frombuffer(path.read_bytes(), dtype=float).copy()
    raw[:810:81] = np.nan  # one entry in each of ten cells
    path.write_bytes(raw.tobytes())
    config = dict(BASE, coefficients={"kind": "file", "path": str(path)},
                  estimates=["representation"], out=str(tmp_path / "out"))
    assert _run_config(tmp_path / "nan.json", config) == 2


def test_weak_coefficients_file_exits_2_at_every_seed(tmp_path):
    # exact coercivity 0.05 against a declared lam of 0.5; 16 sampled
    # directions rarely come near v, so only the exact check sees it
    v = np.ones(9) / 3.0
    M = np.eye(9) - 0.95 * np.outer(v, v)
    tensor = M.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3)
    assert coercivity_lower_bound(tensor) == pytest.approx(0.05)
    path = tmp_path / "weak.bin"
    CoefficientField((8, 8, 8), 0.125, tensor[None], np.zeros(512, dtype=np.int32),
                     0.5).export(path)
    for seed in (0, 1, 2):
        config = dict(BASE, coefficients={"kind": "file", "path": str(path)}, seed=seed,
                      out=str(tmp_path / "out"))
        assert _run_config(tmp_path / "weak.json", config) == 2, seed


_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3)
    | st.sampled_from([-1, 0, 0.1, 0.25, 0.5, 1, 2, float("nan"), float("inf")]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)
_DESCRIPTORS = {
    "domain": [BASE["domain"],
               {"kind": "lshape", "extent": [1, 1, 1], "notch": [[0.5, 0.5, 0], [1, 1, 1]],
                "h": 0.125},
               {"kind": "ball", "radius": 0.5, "h": 0.125}],
    "coefficients": [{"kind": "identity"},
                     {"kind": "layered", "axis": 0, "breaks": [-1.0, 0.5],
                      "scales": [1.0, 0.5], "lam": 0.5},
                     {"kind": "checkerboard", "axis": 1, "period": 0.25, "scale_a": 1.0,
                      "scale_b": 0.5, "lam": 0.5}],
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_descriptor_value_gives_an_exit_code(tmp_path_factory, data):
    # no sampled number is above 2 or a positive one below 0.1, so every grid
    # has at most 32 cells a side
    part = data.draw(st.sampled_from(sorted(_DESCRIPTORS)))
    descriptor = dict(data.draw(st.sampled_from(_DESCRIPTORS[part])))
    descriptor[data.draw(st.sampled_from(sorted(descriptor)))] = data.draw(_JSON)
    tmp = tmp_path_factory.mktemp("descriptor")
    raw = dict(BASE, out=str(tmp / "out"), **{part: descriptor})
    assert _run_config(tmp / "config.json", raw) in (0, 1, 2, 3)


def test_corrupt_fixture_config_exits_2(tmp_path):
    fdir = tmp_path / "fixture"
    fdir.mkdir()
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(dict(BASE, fixture_dir=str(fdir), out=str(tmp_path / "out"))))
    for stored in ("{ broken", json.dumps(dict(BASE, domain={"kind": "cube"}))):
        (fdir / "config.json").write_text(stored)
        assert main(["verify", "--config", str(path)]) == 2


def test_valid_configs_keep_their_digest():
    # measured before the field table replaced the chain of checks
    raws = {"reports16": json.loads((DATA / "reports16.json").read_text()),
            **{name: dict(raw, preset=name) for name, raw in PRESET_CONFIGS.items()}}
    digests = {name: ExperimentConfig.from_dict(raw).digest() for name, raw in raws.items()}
    assert digests == {"reports16": "7c8c720f271cb9c5", "smoke": "a4a440a08feccef6",
                       "standard": "f9c84cc303879e59", "deep": "119c694392dd1655"}


# -- pipeline runs -----------------------------------------------------------------


def test_empty_estimate_selection_writes_manifest_only(tmp_path):
    cfg = make_config(tmp_path)
    assert run_experiment(cfg) == 0
    out = Path(cfg.out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert not (out / "reports.csv").exists()


def test_manifests_record_stage_peak_rss(tmp_path, monkeypatch):
    cfg = make_config(tmp_path, estimates=["poincare", "oscillation"])
    assert run_experiment(cfg) == 0
    manifest = json.loads((Path(cfg.out) / "manifest.json").read_text())
    peaks = manifest["stage_peak_rss_mb"]
    assert list(peaks) == list(manifest["stages"]) == [
        "domain", "coefficients", "assemble", "estimate:poincare", "estimate:oscillation"]
    # the process peak so far, so it never falls from stage to stage
    assert 0 < peaks["domain"] and list(peaks.values()) == sorted(peaks.values())
    result = CriterionResult("C13", "exterior measure density", True, {})
    monkeypatch.setattr(AcceptanceSuite, "c13_exterior_density", lambda self: result)
    vcfg = make_config(tmp_path, preset="smoke", out=str(tmp_path / "verify"))
    monkeypatch.setitem(acceptance.CRITERIA_BY_PRESET, "smoke", ["C13"])
    assert verify(vcfg) == 0
    vmanifest = json.loads((tmp_path / "verify" / "verify_manifest.json").read_text())
    assert vmanifest["criteria"]["C13"]["peak_rss_mb"] >= max(peaks.values())


def test_small_run_exit_zero_and_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        cfg = make_config(tmp_path, estimates=["poincare", "oscillation", "bogovskii"],
                          seed=3, out=str(tmp_path / tag))
        assert run_experiment(cfg) == 0
        outs.append((Path(cfg.out) / "reports.csv").read_bytes())
    assert outs[0] == outs[1]  # identical config+seed => identical CSV


def test_smoke_preset_run_completes_quickly(tmp_path):
    import time

    t0 = time.time()
    code = main(["run", "--preset", "smoke", "--out", str(tmp_path / "smoke")])
    elapsed = time.time() - t0
    assert elapsed < 60
    assert code in (0, 1)  # decay windows at 16^3 are honest, not gamed
    manifest = json.loads((tmp_path / "smoke" / "manifest.json").read_text())
    assert manifest["status"] in ("ok", "estimate-failures")
    assert (tmp_path / "smoke" / "reports.csv").exists()


def test_cli_requires_config_or_preset():
    assert main(["run"]) == 2


# -- verify ---------------------------------------------------------------------


def test_verify_memory_budget_skips_gracefully(tmp_path, capsys):
    cfg = make_config(tmp_path, preset="deep", memory_budget_mb=256)
    assert verify(cfg) == 0
    assert "SKIP" in capsys.readouterr().out


def test_verify_manifest_records_numpy_pass_flags(tmp_path, monkeypatch):
    # criteria compute their pass flags with numpy comparisons
    result = CriterionResult("C13", "exterior measure density", np.bool_(True), {})
    monkeypatch.setattr(AcceptanceSuite, "run", lambda self: [result])
    cfg = make_config(tmp_path, preset="smoke")
    assert verify(cfg) == 0
    manifest = json.loads((Path(cfg.out) / "verify_manifest.json").read_text())
    assert manifest["criteria"]["C13"]["passed"] is True


def test_export_and_fixture_verify_and_tamper(tmp_path):
    out = tmp_path / "fix"
    code = main(["export", "--config", str(_write_export_config(tmp_path, out))])
    assert code == 0
    exports = sorted(out.glob("green_*.bin"))
    assert exports

    cfg = make_config(tmp_path, fixture_dir=str(out))
    assert verify(cfg) == 0

    # tamper: scale the stored G (first 9 of 12 values per cell) by 2
    data = np.frombuffer(exports[0].read_bytes(), dtype=float).reshape(-1, 12).copy()
    data[:, :9] *= 2.0
    exports[0].write_bytes(data.tobytes())
    assert verify(cfg) == 1


def test_fixture_verify_reports_unreadable_exports(tmp_path, capsys):
    out = tmp_path / "fix"
    assert main(["export", "--config", str(_write_export_config(tmp_path, out))]) == 0
    exports = sorted(out.glob("green_*.bin"))
    assert len(exports) == 2
    exports[0].write_bytes(exports[0].read_bytes()[:1000])
    exports[1].with_suffix(".bin.json").unlink()
    capsys.readouterr()
    assert verify(make_config(tmp_path, fixture_dir=str(out))) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"FAIL {p.name}" for p in exports]
    assert all("unreadable export" in line for line in lines)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the mean of an empty slice
def test_fixture_verify_fails_an_empty_eps_ball(tmp_path, capsys):
    # a sidecar moved to an eps-ball that holds no cell centre gives a NaN
    # representation error, which must fail, not pass
    out = tmp_path / "fix"
    path = _write_export_config(tmp_path, out)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), eps_sweep=[0.25])))
    assert main(["export", "--config", str(path)]) == 0
    (export,) = out.glob("green_*.bin")
    sidecar = export.with_suffix(".bin.json")
    sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()),
                                       y=[0.3, 0.3, 0.3], eps=0.01)))
    capsys.readouterr()
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(dict(BASE, fixture_dir=str(out), out=str(tmp_path / "v"))))
    assert main(["verify", "--config", str(path)]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(f"FAIL {export.name}: representation check failed (err nan)")


def test_nonsymmetric_fixture_verify_assembles_only_the_adjoint(tmp_path, monkeypatch):
    tensor = random_elliptic_tensor(np.random.default_rng(3))
    field = CoefficientField((8, 8, 8), 0.125, tensor[None], np.zeros(512, dtype=np.int32),
                             0.25)
    assert not field.is_self_adjoint()
    field.export(tmp_path / "coeffs.bin")
    out = tmp_path / "fix"
    path = _write_export_config(tmp_path, out)
    raw = json.loads(path.read_text())
    raw["coefficients"] = {"kind": "file", "path": str(tmp_path / "coeffs.bin")}
    path.write_text(json.dumps(raw))
    assert main(["export", "--config", str(path)]) == 0

    built = []

    def counted(domain, coeffs, c_s):
        built.append(coeffs)
        return system.ConormalOperator(domain, coeffs, c_s)

    monkeypatch.setattr(cli, "ConormalOperator", counted)
    assert verify(make_config(tmp_path, fixture_dir=str(out))) == 0
    assert len(built) == 1
    assert np.array_equal(built[0].tensors, adjoint_field(field).tensors[field.index])


def _write_export_config(tmp_path, out):
    raw = {
        "domain": {"kind": "box", "extent": [1.0, 1.0, 1.0], "h": 0.125},
        "coefficients": {"kind": "identity"},
        "poles": [[0.44, 0.56, 0.52]],
        "eps_sweep": [0.375, 0.25],
        "estimates": [],
        "out": str(out),
    }
    path = tmp_path / "export.json"
    path.write_text(json.dumps(raw))
    return path


def test_builtin_presets_validate():
    for name, raw in PRESET_CONFIGS.items():
        cfg = ExperimentConfig.from_dict(dict(raw))
        assert cfg.domain["kind"] == "box"


def test_self_adjoint_pipeline_reuses_operator_for_adjoint(tmp_path):
    pipe = Pipeline(make_config(tmp_path))
    pipe.build()
    op = pipe.operator
    assert op.adjoint() is op


def test_one_pole_serves_both_kinds(tmp_path):
    pipe = Pipeline(make_config(tmp_path, poles=[[0.3, 0.3, 0.3]]))
    pipe.build()
    assert set(pipe.poles) == {"interior", "boundary"}
    assert all(np.array_equal(p, [0.3, 0.3, 0.3]) for p in pipe.poles.values())
    pipe = Pipeline(make_config(tmp_path, poles="auto-boundary"))
    pipe.build()
    assert pipe.poles["interior"] is pipe.poles["boundary"]


def test_estimate_table_order_and_unknown_id(tmp_path):
    assert VALID_ESTIMATES == list(ESTIMATES)
    assert VALID_ESTIMATES[:16] == [f"{t}-{k}" for t in ("T1", "T2") for k in (
        "i", "ii", "iii", "iv", "v", "vi", "vii", "viii")]
    assert VALID_ESTIMATES[16:] == ["decay", "symmetry", "representation",
                                    "caccioppoli", "oscillation", "bogovskii",
                                    "poincare"]
    assert PRESET_CONFIGS["deep"]["estimates"] == VALID_ESTIMATES
    pipe = Pipeline(make_config(tmp_path))
    with pytest.raises(ConfigError):
        pipe.run_estimate("T9-x")


def test_run_and_verify_weak_type_agree(tmp_path):
    # the CLI rows T1-iii/iv/v and acceptance C06 measure the same envelopes
    # at the same centre pole and eps = 2h
    suite = AcceptanceSuite("smoke")
    c06 = suite.c06_weak_type()
    cfg = make_config(tmp_path, domain={"kind": "box", "extent": [1.0, 1.0, 1.0],
                                        "h": 1.0 / 16})
    pipe = Pipeline(cfg)
    pipe.build()
    assert np.array_equal(pipe.poles["interior"], center_pole(suite.pipeline(16).domain))
    for eid, accepted in zip(("T1-iii", "T1-iv", "T1-v"), c06.reports):
        (run,) = pipe.run_estimate(eid)
        assert run.samples.keys() == accepted.samples.keys()
        for key, value in run.samples.items():  # thresholds, measures, envelope
            assert np.array_equal(value, accepted.samples[key]), key
        assert run.envelope_ratio == accepted.envelope_ratio
        assert run.flags == accepted.flags
        assert run.passed == accepted.passed


def test_run_and_verify_bogovskii_agree(suite):
    # C10 and the CLI row share measure_bogovskii; on the even grids the
    # mean-subtracted +-1 data is C10's own, so the 16^3 quotient is the
    # golden bogovskii row
    c10 = suite.c10_bogovskii()
    golden = {line.split(",")[0]: line.split(",")[2]
              for line in (DATA / "reports16.csv").read_text().splitlines()}
    assert f"{c10.details['quotients'][16]:.8g}" == golden["bogovskii"] == "0.85555128"


def test_every_estimate_runner_end_to_end(tmp_path):
    # one pipeline exercising every estimate id at 16^3; the golden files
    # are rewritten from the same config by the command in README.md,
    # `stokesgreen run --config tests/data/reports16.json --out DIR` and a
    # copy of DIR/reports.csv and DIR/reports.txt to reports16.*
    raw = json.loads((DATA / "reports16.json").read_text())
    assert raw["estimates"] == list(VALID_ESTIMATES)
    raw["out"] = str(tmp_path / "full")
    cfg = ExperimentConfig.from_dict(raw)
    code = run_experiment(cfg)
    assert code in (0, 1)  # windows at 16^3 are honest; no crash, no skip
    out = Path(cfg.out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] in ("ok", "estimate-failures")
    csv_lines = (out / "reports.csv").read_text().strip().splitlines()
    ids = {line.split(",")[0] for line in csv_lines[1:]}
    # every selected estimate produced at least one report row
    for eid in ("T1-i", "T1-v", "T2-viii", "decay-interior", "symmetry",
                "averaging", "representation", "caccioppoli-interior",
                "caccioppoli-boundary", "oscillation", "bogovskii", "poincare"):
        assert any(i.startswith(eid) for i in ids), (eid, ids)
    records = (out / "reports.txt").read_text()
    assert "coefficients_digest" in records
    # golden rows from before the estimate table replaced the if chain; the
    # representation error is solver round-off (~1e-11), held to its bound
    golden = (DATA / "reports16.csv").read_text().splitlines()
    assert len(csv_lines) == len(golden)
    for got, want in zip(csv_lines, golden):
        got_cols, want_cols = got.split(","), want.split(",")
        if want_cols[0] == "representation":
            assert got_cols[0] == want_cols[0] and got_cols[-1] == want_cols[-1]
            assert float(got_cols[2]) <= 1e-6
        else:
            assert got == want
    # the records as text, with the representation record held to its id
    # and pass line
    got_records = records.strip().split("\n\n")
    want_records = (DATA / "reports16.txt").read_text().strip().split("\n\n")
    assert len(got_records) == len(want_records)
    for got, want in zip(got_records, want_records):
        if want.startswith("[representation]"):
            got_lines, want_lines = got.splitlines(), want.splitlines()
            assert got_lines[0] == want_lines[0] and got_lines[-1] == want_lines[-1]
        else:
            assert got == want


def _env_without_thread_counts():
    env = {k: v for k, v in os.environ.items() if k not in sg_main.THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


@pytest.mark.parametrize("entry", [
    ["-m", "stokesgreen"],
    # what the console script runs
    ["-c", "import sys; from stokesgreen.__main__ import main; sys.exit(main())"],
])
def test_command_writes_golden_reports_without_thread_settings(entry, tmp_path):
    # the command pins one BLAS thread itself, so the 16^3 golden files,
    # written with one thread, come out byte for byte with the thread
    # variables unset, whatever the machine's default
    proc = subprocess.run(
        [sys.executable, *entry, "run", "--config", str(DATA / "reports16.json"),
         "--out", str(tmp_path)],
        env=_env_without_thread_counts(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode in (0, 1), proc.stderr
    for name in ("reports.csv", "reports.txt"):
        assert (tmp_path / name).read_bytes() == (DATA / name.replace(".", "16.")).read_bytes()


def test_command_keeps_a_callers_thread_count(monkeypatch):
    for var in sg_main.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert sg_main.main(["run"]) == 2  # a config error, after the defaults are set
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    assert os.environ["OMP_NUM_THREADS"] == os.environ["MKL_NUM_THREADS"] == "1"


def test_library_import_sets_no_thread_count_and_loads_no_numpy():
    code = (f"import os, sys, stokesgreen; "
            f"print(len(set(os.environ) & {set(sg_main.THREAD_VARS)}), 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=_env_without_thread_counts(),
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_bogovskii_row_flags_a_missed_divergence_target(tmp_path, monkeypatch):
    # at 8^3 the correction sweeps stall near 1e-2 relative, far above
    # div_tol = 1e-8: the row says so, and stays informational
    built, operator_class = [], system.ConormalOperator

    def counted(*args):
        built.append(args)
        return operator_class(*args)

    for module in (cli, system):
        monkeypatch.setattr(module, "ConormalOperator", counted)
    pipe = Pipeline(make_config(tmp_path))
    pipe.build()
    (missed,) = pipe.run_estimate("bogovskii")
    assert len(built) == 1  # the divergence solve borrows the pipeline's operator
    assert missed.passed
    assert len(missed.flags) == 1 and "above its target" in missed.flags[0]
    # a target the sweeps meet gives no flag
    monkeypatch.setattr(cli, "solve_divergence",
                        functools.partial(system.solve_divergence, div_tol=0.05))
    (met,) = pipe.run_estimate("bogovskii")
    assert met.flags == [] and met.passed
