import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from stokesgreen.coefficients import CoefficientField, adjoint_field
from stokesgreen.errors import ConfigError

from conftest import random_elliptic_tensor

DATA = Path(__file__).parent / "data"
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
    assert np.array_equal(pipe.pole("interior"), suite.center_pole(16))
    for eid, accepted in zip(("T1-iii", "T1-iv", "T1-v"), c06.reports):
        (run,) = pipe.run_estimate(eid)
        assert run.samples.keys() == accepted.samples.keys()
        for key, value in run.samples.items():  # thresholds, measures, envelope
            assert np.array_equal(value, accepted.samples[key]), key
        assert run.envelope_ratio == accepted.envelope_ratio
        assert run.flags == accepted.flags
        assert run.passed == accepted.passed


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
