import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nirscope.cli
from nirscope import stats
from nirscope.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    _config_from_args,
    build_parser,
    main,
)
from nirscope.epochs import segment
from nirscope.learn import make_fold_plan
from nirscope.model import DatasetFormatError, load_dataset
from nirscope.pipeline import REPORT_FILES, PipelineConfig, PipelineError, epochs_from_dataset

SMALL_RUN = [
    "--patients", "6", "--controls", "6", "--folds", "3",
    "--trials", "3", "--samples", "64", "--seed", "3",
]


def test_synth_writes_dataset_and_ground_truth(tmp_path):
    out = tmp_path / "ds"
    code = main(
        [
            "synth", "--patients", "2", "--controls", "2", "--seed", "5",
            "--effect-channels", "S7-D6", "S5-D6",
            "--amplitude-ratio", "0.5", "--peak-delay", "1.5",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    ds = load_dataset(out)
    assert len(ds.recordings) == 4
    gt = json.loads((out / "ground_truth.json").read_text())
    assert gt["discriminative"] == [["S7-D6", "hbr"], ["S5-D6", "hbr"]]


def test_stats_ttest_summary_matches_published_value(capsys):
    code = main(
        [
            "stats", "ttest",
            "--summary", "4336,1.40e-6,8.68e-6", "--summary", "5135,5.78e-7,6.28e-6",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    t_val = float(out.split("t = ")[1].split(",")[0])
    assert t_val == pytest.approx(5.374, abs=0.05)


def test_stats_anova_summary(capsys):
    code = main(
        ["stats", "anova", "--summary", "13,43.85,9.57", "--summary", "11,44.36,10.56"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    f_val = float(out.split("F = ")[1].split(",")[0])
    assert f_val == pytest.approx(0.016, abs=0.01)


def test_stats_levene_from_csvs(tmp_path, capsys):
    import numpy as np

    rng = np.random.default_rng(0)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("\n".join(str(v) for v in rng.normal(0, 1, 60)))
    b.write_text("\n".join(str(v) for v in rng.normal(0, 10, 60)))
    assert main(["stats", "levene", "--csv", str(a), str(b)]) == EXIT_OK
    out = capsys.readouterr().out
    assert float(out.split("p = ")[1]) < 0.05


@pytest.mark.parametrize("bad", ["abc", "nan", "-inf"])
def test_stats_csv_with_a_non_number_is_a_data_error_naming_file_and_line(
    tmp_path, capsys, bad
):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("1.5\n2.5\n3.0\n")
    b.write_text(f"# values\n1.0\n\n {bad}\n2.0\n")
    assert main(["stats", "ttest", "--csv", str(a), str(b)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{b}:4: not a finite number: '{bad}'" in err


@pytest.mark.parametrize("text, count", [("# one value\n1.5\n", 1), ("", 0)], ids=["one", "empty"])
def test_stats_csv_with_fewer_than_two_values_is_a_data_error_naming_the_file(
    tmp_path, capsys, text, count
):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(text)
    b.write_text("1.0\n2.0\n3.0\n")
    assert main(["stats", "ttest", "--csv", str(a), str(b)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{a}: a group needs at least 2 values, got {count}" in err


def test_stats_rejects_mixed_inputs(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("1\n2\n")
    code = main(
        ["stats", "ttest", "--csv", str(f), "--summary", "5,0,1"]
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "triple, cause",
    [("3,inf,1", "mean and sd must be finite, got mean=inf, sd=1.0"),
     ("3,1,nan", "mean and sd must be finite, got mean=1.0, sd=nan"),
     ("2.5,1,1", "invalid literal for int() with base 10: '2.5'")],
    ids=["inf-mean", "nan-sd", "fractional-n"],
)
def test_stats_refuses_a_summary_with_a_non_finite_value_or_a_fractional_n(
    capsys, triple, cause
):
    # A non-finite mean printed p = 0 or p = nan; a fractional N named no triple.
    for test in ("ttest", "anova"):
        assert main(["stats", test, "--summary", triple, "--summary", "3,2,1"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"--summary {triple!r}: {cause}" in captured.err
        assert captured.out == ""


def test_run_writes_all_report_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--out", str(out)] + SMALL_RUN)
    assert code == EXIT_OK
    for name in REPORT_FILES:
        assert (out / name).is_file(), name
    stdout = capsys.readouterr().out
    assert "pooled accuracy" in stdout
    assert "top channels" in stdout


@pytest.mark.parametrize("nonzero", [2, 0])
def test_run_shows_no_zero_importance_pair_as_top(tmp_path, capsys, monkeypatch, nonzero):
    # The run's ranking with its first `nonzero` pairs kept and every other
    # pair set to 0.
    from nirscope import explain

    attribute = explain.attribute_cross_validation

    def ranking_with_zeros(cv, **kwargs):
        ranking, phi = attribute(cv, **kwargs)
        entries = tuple(
            (ch, chrom, 1.0 / (i + 1) if i < nonzero else 0.0)
            for i, (ch, chrom, _) in enumerate(ranking.entries)
        )
        return explain.ChannelImportance(entries), phi

    monkeypatch.setattr(explain, "attribute_cross_validation", ranking_with_zeros)
    out = tmp_path / "run"
    assert main(["run", "--out", str(out)] + SMALL_RUN) == EXIT_OK
    rows = (out / "channel_importance.csv").read_text().splitlines()[1:]
    pairs = [" ".join(row.split(",")[:2]) for row in rows]
    assert len(pairs) == 40  # the CSV lists every pair
    shown = pairs[:nonzero] if nonzero else pairs[:10]
    bars = (out / "channel_importance.svg").read_text()
    panels = (out / "block_average_curves.svg").read_text()
    for pair in pairs[:12]:
        assert (f">{pair}<" in bars) == (pair in shown), pair
        assert (f">{pair}<" in panels) == (pair in shown[:4]), pair
    stdout = capsys.readouterr().out
    assert f"top channels: {', '.join(pairs[:nonzero]) or 'none'}\n" in stdout


def test_run_prints_as_many_top_channels_as_it_tests(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"top_channels": 2}))
    out = tmp_path / "run"
    assert main(["run", "--out", str(out), "--config", str(cfg)] + SMALL_RUN) == EXIT_OK
    rows = (out / "channel_importance.csv").read_text().splitlines()[1:3]
    top = ", ".join(" ".join(row.split(",")[:2]) for row in rows)
    assert f"top channels: {top}\n" in capsys.readouterr().out
    assert '"top_channels": 2' in (out / "provenance.txt").read_text()


def test_run_twice_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--out", str(out_a)] + SMALL_RUN) == EXIT_OK
    assert main(["run", "--out", str(out_b)] + SMALL_RUN) == EXIT_OK
    for name in REPORT_FILES:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_run_with_excessive_k_names_features_stage(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["run", "--out", str(out), "--select-k", "999999"] + SMALL_RUN
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "features" in err
    # partial outputs removed
    assert not any((out / name).exists() for name in REPORT_FILES)


def test_missing_dataset_is_a_data_error(tmp_path, capsys):
    code = main(["train", "--dataset", str(tmp_path / "nope")])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_preprocess_then_epoch_round_trip(tmp_path, capsys):
    ds_dir = tmp_path / "raw"
    main(
        ["synth", "--patients", "1", "--controls", "1", "--seed", "2", "--out", str(ds_dir)]
    )
    hemo_dir = tmp_path / "hemo"
    assert main(["preprocess", "--dataset", str(ds_dir), "--out", str(hemo_dir)]) == EXIT_OK
    loaded = load_dataset(hemo_dir)
    assert loaded.kind == "hemo"
    assert len(loaded.hemo) == 2
    steps = {s.name: dict(s.params) for s in loaded.hemo[0].provenance}
    assert set(steps) == {
        "intensity_to_od",
        "short_channel_regression",
        "mbll_invert",
        "motion_correction",
        "bandpass",
    }
    assert steps["motion_correction"]["order"] == "spline_then_wavelet"
    assert main(["epoch", "--dataset", str(hemo_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "epochs total" in out


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "patients": 6, "controls": 6, "folds": 3,
                               "trials_per_task": 3, "shap_samples": 64}))
    out = tmp_path / "run"
    code = main(["run", "--out", str(out), "--seed", "1", "--config", str(cfg)])
    assert code == EXIT_OK
    provenance = (out / "provenance.txt").read_text()
    assert '"seed": 9' in provenance


def test_config_with_malformed_json_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{\n  "seed": 9,\n  model: "rf"\n}\n')
    code = main(["run", "--out", str(tmp_path / "r"), "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert f"{cfg}:3: Expecting property name" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("top", [[["seed", 9]], "seed", 9, None])
def test_config_must_be_a_json_object(tmp_path, capsys, top):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(top))
    code = main(["run", "--out", str(tmp_path / "r"), "--config", str(cfg)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{cfg}: config must be a JSON object, got {type(top).__name__}" in err
    assert not (tmp_path / "r").exists()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not_a_key": 1}))
    code = main(["run", "--out", str(tmp_path / "r"), "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err


def test_config_rejects_removed_threads_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    code = main(["run", "--out", str(tmp_path / "r"), "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "unknown config keys: ['threads']" in capsys.readouterr().err


def test_provenance_ignores_nirscope_threads(tmp_path, monkeypatch):
    monkeypatch.delenv("NIRSCOPE_THREADS", raising=False)
    assert main(["run", "--out", str(tmp_path / "a")] + SMALL_RUN) == EXIT_OK
    monkeypatch.setenv("NIRSCOPE_THREADS", "3")
    assert main(["run", "--out", str(tmp_path / "b")] + SMALL_RUN) == EXIT_OK
    a = (tmp_path / "a" / "provenance.txt").read_bytes()
    assert a == (tmp_path / "b" / "provenance.txt").read_bytes()
    assert b"threads" not in a


# A value of the wrong type for each annotation of a PipelineConfig field.
WRONG_TYPED = {
    "str": 3,
    "str | None": 3,
    "int": "3",
    "int | None": "3",
    "float": "0.5",
    "bool": "no",
    "tuple[str, ...]": "S7-D6",
}


@pytest.mark.parametrize(
    "field", dataclasses.fields(PipelineConfig), ids=lambda field: field.name
)
def test_config_file_value_of_the_wrong_type_is_refused_before_any_work(
    tmp_path, capsys, field
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field.name: WRONG_TYPED[field.type]}))
    out = tmp_path / "r"
    assert main(["run", "--out", str(out), "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: {field.name}: must be {field.type}, got ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, config, message",
    [
        ([], {"pool": "participant"}, "pool: must be one of ['sample', 'trial']"),
        ([], {"short_channel": "no"}, "short_channel: must be bool, got str 'no'"),
        ([], {"baseline_s": -1}, "baseline_s: must be >= 0, got -1"),
        ([], {"motion_amp_sigma": -1}, "motion_amp_sigma: must be > 0, got -1"),
        (["--folds", "0"], None, "folds: must be >= 2, got 0"),
        (["--window", "-1"], None, "window_s: must be > 0, got -1.0"),
        (["--samples", "0"], None, "shap_samples: must be >= 1, got 0"),
        # The effect's settings are checked when no channel expresses it too.
        (["--amplitude-ratio", "0", "--peak-delay", "3"], None,
         "effect_channels, amplitude_ratio, peak_delay_s: amplitude_ratio must be in (0, 1], "
         "got 0.0"),
    ],
    ids=["pool", "short_channel", "baseline", "motion_sigma", "folds", "window", "samples",
         "effect_without_channels"],
)
def test_bad_config_value_exits_2_before_any_work(tmp_path, capsys, flags, config, message):
    out = tmp_path / "r"
    argv = ["run", "--out", str(out), "--patients", "3", "--controls", "3", *flags]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
        message = f"{cfg}: {message}"
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "pipeline failed" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, config, field",
    [
        (["--low-cut", "nan"], None, "low_cut_hz"),
        (["--high-cut", "nan"], None, "high_cut_hz"),
        (["--window", "inf"], None, "window_s"),
        (["--peak-delay", "nan", "--effect-channels", "S7-D6"], None, "peak_delay_s"),
        (["--peak-delay", "inf", "--effect-channels", "S7-D6"], None, "peak_delay_s"),
        ([], '{"baseline_s": NaN}', "baseline_s"),
    ],
    ids=["low_cut_nan", "high_cut_nan", "window_inf", "peak_delay_nan", "peak_delay_inf",
         "config_nan"],
)
def test_non_finite_config_value_exits_2_before_any_work(tmp_path, capsys, flags, config, field):
    out = tmp_path / "r"
    argv = ["run", "--out", str(out), "--patients", "3", "--controls", "3", *flags]
    prefix = "error: "
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
        prefix += f"{cfg}: "
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix}{field}: must be finite, got ")
    assert not out.exists()


def test_config_file_list_becomes_a_tuple(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"effect_channels": ["S7-D6"]}))
    args = build_parser().parse_args(["run", "--out", "o", "--config", str(cfg)])
    assert _config_from_args(args).effect_channels == ("S7-D6",)


def test_provenance_lists_every_participant(tmp_path):
    raw, hemo = tmp_path / "raw", tmp_path / "hemo"
    synth = ["synth", "--patients", "3", "--controls", "3", "--seed", "4", "--out", str(raw)]
    assert main(synth) == EXIT_OK
    assert main(["preprocess", "--dataset", str(raw), "--out", str(hemo)]) == EXIT_OK
    run = ["run", "--dataset", str(hemo), "--folds", "3", "--feature-mode", "summary",
           "--samples", "64", "--seed", "4", "--out"]
    assert main(run + [str(tmp_path / "same")]) == EXIT_OK
    text = (tmp_path / "same" / "provenance.txt").read_text()
    assert "preprocessing steps (all 6 participants):" in text
    assert text.count("  bandpass: ") == 1

    # One participant's manifest records another band-pass.
    manifest = json.loads((hemo / "manifest.json").read_text())
    odd = manifest["participants"][4]
    for name, params in odd["provenance"]:
        if name == "bandpass":
            params["high_cut_hz"] = 0.5
    (hemo / "manifest.json").write_text(json.dumps(manifest))
    assert main(run + [str(tmp_path / "mixed")]) == EXIT_OK
    text = (tmp_path / "mixed" / "provenance.txt").read_text()
    others = [p["id"] for p in manifest["participants"] if p is not odd]
    assert f"preprocessing steps (5 of 6 participants: {', '.join(others)}):" in text
    assert f"preprocessing steps (1 of 6 participants: {odd['id']}):" in text
    assert text.count("  bandpass: ") == 2
    assert "'high_cut_hz': 0.5" in text and "'high_cut_hz': 0.7" in text


SYNTHETIC_FIELDS = {
    "patients", "controls", "trials_per_task", "effect_channels",
    "amplitude_ratio", "peak_delay_s", "effect_chromophore",
}


def _provenance_config(report_dir) -> dict:
    """The config echoed at the top of a run's provenance.txt."""
    text = (report_dir / "provenance.txt").read_text()
    head = text.split("\n\n")[0]
    return json.loads(head[head.index("config:\n") + len("config:\n") :])


def test_provenance_config_leaves_out_synthetic_fields_of_a_dataset_run(tmp_path):
    assert main(["run", "--out", str(tmp_path / "synthetic")] + SMALL_RUN) == EXIT_OK
    config = _provenance_config(tmp_path / "synthetic")
    assert SYNTHETIC_FIELDS <= set(config)
    assert config["patients"] == 6 and config["dataset_path"] is None

    raw, hemo = tmp_path / "raw", tmp_path / "hemo"
    synth = ["synth", "--patients", "3", "--controls", "3", "--seed", "5", "--out", str(raw)]
    assert main(synth) == EXIT_OK
    assert main(["preprocess", "--dataset", str(raw), "--out", str(hemo)]) == EXIT_OK
    run = ["run", "--dataset", str(hemo), "--folds", "3", "--feature-mode", "summary",
           "--samples", "64", "--seed", "5", "--out", str(tmp_path / "dataset")]
    assert main(run) == EXIT_OK
    config = _provenance_config(tmp_path / "dataset")
    assert not SYNTHETIC_FIELDS & set(config)
    assert config["dataset_path"] == "hemo"
    assert config["seed"] == 5 and config["model"] == "knn"


def test_provenance_of_one_container_is_the_same_from_two_locations(tmp_path):
    raw, here = tmp_path / "raw", tmp_path / "a" / "study"
    synth = ["synth", "--patients", "3", "--controls", "3", "--seed", "6", "--out", str(raw)]
    assert main(synth) == EXIT_OK
    assert main(["preprocess", "--dataset", str(raw), "--out", str(here)]) == EXIT_OK
    there = tmp_path / "b" / "deeper" / "study"
    shutil.copytree(here, there)
    run = ["run", "--folds", "3", "--feature-mode", "summary", "--samples", "64",
           "--seed", "6"]
    assert main(run + ["--dataset", str(here), "--out", str(tmp_path / "r1")]) == EXIT_OK
    assert main(run + ["--dataset", str(there) + "/", "--out", str(tmp_path / "r2")]) == EXIT_OK
    first = (tmp_path / "r1" / "provenance.txt").read_bytes()
    assert first == (tmp_path / "r2" / "provenance.txt").read_bytes()
    assert b'"dataset_path": "study"' in first


PREPROCESSING_FIELDS = {
    "low_cut_hz", "high_cut_hz", "filter_order", "short_channel",
    "motion_correction", "motion_amp_sigma", "motion_iqr",
}


def test_provenance_config_leaves_out_preprocessing_fields_of_a_hemo_run(
    golden_dataset, golden_hemo, tmp_path
):
    flags = ["--folds", "2", "--samples", "64", "--seed", "1", "--low-cut", "0.01", "--no-motion"]
    out = tmp_path / "hemo-run"
    assert main(["run", "--dataset", str(golden_hemo), "--out", str(out)] + flags) == EXIT_OK
    assert not PREPROCESSING_FIELDS & set(_provenance_config(out))
    # The steps that made the container are listed, as they were run.
    text = (out / "provenance.txt").read_text()
    assert "'low_cut_hz': 0.05" in text and "  motion_correction: " in text

    out = tmp_path / "raw-run"
    assert main(["run", "--dataset", str(golden_dataset), "--out", str(out)] + flags) == EXIT_OK
    config = _provenance_config(out)
    assert PREPROCESSING_FIELDS <= set(config)
    assert config["low_cut_hz"] == 0.01 and config["motion_correction"] is False


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# Characterization digests, recorded on the commit before the CLI built every
# config in one place and `run` and `report` shared one figure path. That
# change must leave these bytes as they were.
GOLDEN_SYNTH = [
    "synth", "--patients", "2", "--controls", "2", "--seed", "1",
    "--effect-channels", "S7-D6", "S5-D6",
    "--amplitude-ratio", "0.5", "--peak-delay", "1.5",
]
GOLDEN_DATASET_SHA256 = "1fc6bc048b7b3f1ec50f4c786c374e76c49cefa9ee7388b5a68da1e1cd98d64f"
GOLDEN_REPORT_SHA256 = {
    "block_average_curves.svg": "e688d15a02bd3fe214bb704b5a225aaa7a2fe5ae9b9ee3e86fbb596f50f36454",
    "time_to_peak.svg": "af39b311442e8d4b8397b235432efe26a507fd99e11d9f46d13bbebb3fb60ad8",
}
# The three figures of `run --model rf --folds 2 --seed 1`, recorded before the
# bar, group-bar and curve drawers shared one scaffold. rf ranks other top
# pairs than knn, so its curves are a figure no other digest covers.
GOLDEN_RUN_SVG_SHA256 = {
    "block_average_curves.svg": "92be177afbd2c5944ecd464c71877d1b2fd5ecba58000321ecf293d4099f5bdb",
    "channel_importance.svg": "f4fb57c4ba9a721de8ab037374212ebffcb98df92d988edc1446fc457ec4d267",
    "time_to_peak.svg": "af39b311442e8d4b8397b235432efe26a507fd99e11d9f46d13bbebb3fb60ad8",
}
GOLDEN_TRAIN_STDOUT_SHA256 = "33ddc356aa2d3aeb7fb237474b968ca20f7e85572d79e6f9c88bd819d3bc4d8c"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_sha256(root) -> str:
    """One digest over the relative names and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "raw"
    assert main(GOLDEN_SYNTH + ["--out", str(out)]) == EXIT_OK
    return out


def test_synth_dataset_matches_golden_digest(golden_dataset):
    assert _tree_sha256(golden_dataset) == GOLDEN_DATASET_SHA256


def test_report_svgs_match_golden_digests(golden_dataset, tmp_path):
    out = tmp_path / "figures"
    assert main(["report", "--dataset", str(golden_dataset), "--out", str(out)]) == EXIT_OK
    got = {name: _sha256((out / name).read_bytes()) for name in GOLDEN_REPORT_SHA256}
    assert got == GOLDEN_REPORT_SHA256


def test_run_svgs_match_golden_digests(golden_dataset, tmp_path):
    out = tmp_path / "report"
    argv = ["run", "--dataset", str(golden_dataset), "--out", str(out), "--folds", "2",
            "--seed", "1", "--model", "rf"]
    assert main(argv) == EXIT_OK
    got = {name: _sha256((out / name).read_bytes()) for name in GOLDEN_RUN_SVG_SHA256}
    assert got == GOLDEN_RUN_SVG_SHA256


def test_train_stdout_matches_golden_digest(golden_dataset, capsys):
    capsys.readouterr()
    argv = ["train", "--dataset", str(golden_dataset), "--folds", "2", "--seed", "1"]
    assert main(argv) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == GOLDEN_TRAIN_STDOUT_SHA256


def test_explain_writes_the_same_files_as_run(golden_dataset, tmp_path):
    flags = ["--dataset", str(golden_dataset), "--folds", "2", "--samples", "64", "--seed", "1"]
    assert main(["explain", "--out", str(tmp_path / "explain")] + flags) == EXIT_OK
    assert main(["run", "--out", str(tmp_path / "run")] + flags) == EXIT_OK
    for name in REPORT_FILES:
        assert (tmp_path / "explain" / name).read_bytes() == (
            tmp_path / "run" / name
        ).read_bytes(), name


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--out", "o"],
        ["preprocess", "--dataset", "d", "--out", "o"],
        ["epoch", "--dataset", "d"],
        ["train", "--dataset", "d"],
        ["explain", "--dataset", "d", "--out", "o"],
        ["report", "--dataset", "d", "--out", "o"],
        ["run", "--out", "o"],
    ],
)
def test_required_flags_alone_give_the_default_config(argv):
    cfg = _config_from_args(build_parser().parse_args(argv))
    out_dir = "o" if "--out" in argv else PipelineConfig.out_dir
    dataset_path = "d" if "--dataset" in argv else None
    assert cfg == PipelineConfig(out_dir=out_dir, dataset_path=dataset_path)


def test_every_run_flag_sets_its_config_field():
    argv = [
        "run", "--out", "o", "--dataset", "d", "--seed", "7", "--samples", "9",
        "--pool", "trial", "--patients", "3", "--controls", "4", "--trials", "2",
        "--effect-channels", "S1-D1", "--amplitude-ratio", "0.3", "--peak-delay", "1.0",
        "--effect-chromophore", "hbo", "--low-cut", "0.01", "--high-cut", "0.5",
        "--filter-order", "2", "--no-short-channel", "--no-motion",
        "--motion-amp-sigma", "4", "--motion-iqr", "2", "--task", "dual",
        "--model", "svm", "--folds", "3", "--feature-mode", "summary",
        "--select-k", "5", "--window", "15",
    ]
    assert _config_from_args(build_parser().parse_args(argv)) == PipelineConfig(
        out_dir="o", dataset_path="d", seed=7, shap_samples=9, pool="trial",
        patients=3, controls=4, trials_per_task=2, effect_channels=("S1-D1",),
        amplitude_ratio=0.3, peak_delay_s=1.0, effect_chromophore="hbo",
        low_cut_hz=0.01, high_cut_hz=0.5, filter_order=2, short_channel=False,
        motion_correction=False, motion_amp_sigma=4.0, motion_iqr=2.0, task="dual",
        model="svm", folds=3, feature_mode="summary", select_k=5, window_s=15.0,
    )


def test_stats_csv_repeated_equals_listed(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("1\n2\n4\n8\n")
    b.write_text("3\n3.5\n2\n9\n7\n")
    lines = []
    for argv in (["--csv", str(a), "--csv", str(b)], ["--csv", str(a), str(b)]):
        for test in ("ttest", "levene"):
            assert main(["stats", test] + argv) == EXIT_OK
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]
    assert lines[0].count("p = ") == 2


@pytest.fixture
def broken_bars(monkeypatch):
    """`report` fails drawing time_to_peak.svg, after it wrote block_average_curves.svg."""
    import nirscope.report

    def broken(*args, **kwargs):
        raise ValueError("no bars")

    monkeypatch.setattr(nirscope.report, "svg_group_bars", broken)


def test_report_failure_removes_outputs_and_names_stage(
    golden_dataset, tmp_path, broken_bars, capsys
):
    out = tmp_path / "new" / "figures"
    code = main(["report", "--dataset", str(golden_dataset), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "stage 'report'" in capsys.readouterr().err
    assert not (out / "block_average_curves.svg").exists()
    assert list(tmp_path.iterdir()) == []  # the run made both directories, so both go


@pytest.mark.parametrize("kept", [(), ("notes.txt",)], ids=["empty", "with-a-file"])
def test_a_failed_report_keeps_a_directory_it_did_not_make(
    golden_hemo, tmp_path, broken_bars, capsys, kept
):
    out = tmp_path / "figures"
    out.mkdir()
    for name in kept:
        (out / name).write_text("kept\n")
    assert main(["report", "--dataset", str(golden_hemo), "--out", str(out)]) == EXIT_CONFIG
    assert "stage 'report'" in capsys.readouterr().err
    assert sorted(path.name for path in out.iterdir()) == list(kept)


# Recorded on the commit before `train` ran on `run`'s stage path, the boosted
# trees shared the forest's tree type and the p-values came from
# scipy.special.betainc. Those changes must leave these bytes as they were.
GOLDEN_TRAIN_MODEL_STDOUT_SHA256 = {
    ("--model", "rf"): "d8853111d63cc7e384d2c989099bef93fe14a4266b908d7f92b60403b14d143c",
    ("--model", "gbdt", "--feature-mode", "summary"):
        "b814ededdb19662e7f251ce4269f630e5c464edfc20bbd56c5ab99dc10345099",
}
GOLDEN_STATS_STDOUT_SHA256 = {
    ("ttest",): "42831fbc91a1b25b7052dde99110e3d4a7daafb0dedda52f5b5cc8b2978077ba",
    ("ttest", "--welch"): "6b67a4e2a928f825d99a1f89ca27ab4bad14a1d1ef41478d9365d0f3203229f4",
    ("anova",): "dec0f38b18f8da277a08b3c1be8701988abe5536a659f5c57470b4b1719ba7a4",
    ("levene", "--center", "mean"): "b33d00f7399d3a1bfaa78451e6e595b4c023ea287b8dc0f9f2b91eb961396f79",
    ("levene", "--center", "median"): "c60e314e6aa6caf6d2dd9070ce4479c9de4330037d3d82c5bef6da7bd08340d6",
}


@pytest.fixture(scope="module")
def golden_csvs(golden_dataset, tmp_path_factory):
    """One sample CSV per participant: every 40th intensity of the first channel."""
    out = tmp_path_factory.mktemp("csv")
    paths = []
    for rec in load_dataset(golden_dataset).recordings:
        path = out / f"{rec.participant_id}.csv"
        samples = rec.intensity[0, 0, ::40]
        path.write_text("\n".join(repr(float(v)) for v in samples) + "\n")
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("flags", sorted(GOLDEN_TRAIN_MODEL_STDOUT_SHA256))
def test_train_models_stdout_matches_golden_digest(golden_dataset, capsys, flags):
    capsys.readouterr()
    argv = ["train", "--dataset", str(golden_dataset), "--folds", "2", "--seed", "1"]
    assert main(argv + list(flags)) == EXIT_OK
    got = _sha256(capsys.readouterr().out.encode())
    assert got == GOLDEN_TRAIN_MODEL_STDOUT_SHA256[flags]


@pytest.mark.parametrize("test", sorted(GOLDEN_STATS_STDOUT_SHA256))
def test_stats_stdout_matches_golden_digest(golden_csvs, capsys, test):
    capsys.readouterr()
    # t-tests compare the first two participants; the F-tests all four
    csvs = golden_csvs[:2] if test[0] == "ttest" else golden_csvs
    assert main(["stats", *test, "--csv", *csvs]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == GOLDEN_STATS_STDOUT_SHA256[test]


@pytest.mark.parametrize("test", [("ttest",), ("ttest", "--welch"), ("anova",)])
def test_stats_of_csv_groups_equal_stats_of_their_summaries(golden_csvs, capsys, test):
    csvs = golden_csvs[:2] if test[0] == "ttest" else golden_csvs
    summaries = []
    for path in csvs:
        s = stats.summarize([float(v) for v in Path(path).read_text().split()])
        summaries += ["--summary", f"{s.n},{s.mean!r},{s.sd!r}"]
    capsys.readouterr()
    assert main(["stats", *test, "--csv", *csvs]) == EXIT_OK
    from_csv = capsys.readouterr().out
    assert main(["stats", *test, *summaries]) == EXIT_OK
    assert capsys.readouterr().out == from_csv


def test_train_with_excessive_k_names_features_stage(golden_dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["train", "--dataset", str(golden_dataset), "--folds", "2", "--select-k", "999999"]
    assert main(argv) == EXIT_CONFIG
    assert "stage 'features'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # train writes nothing, not even a directory


@pytest.mark.parametrize("command", ["preprocess", "run"])
def test_container_without_participants_is_a_data_error(tmp_path, capsys, command):
    raw = tmp_path / "raw"
    main(["synth", "--patients", "1", "--controls", "1", "--seed", "2", "--out", str(raw)])
    manifest = json.loads((raw / "manifest.json").read_text())
    manifest["participants"] = []
    (raw / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--dataset", str(raw), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "manifest.json: lists no participants" in err
    assert not out.exists()


def test_run_failing_at_ingest_leaves_no_directory(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--dataset", str(tmp_path / "nope"), "--out", str(out)])
    assert code == EXIT_DATA
    assert "stage 'ingest'" in capsys.readouterr().err
    assert not out.exists()


def _failing_command(error):
    def command(args):
        raise error

    return command


@pytest.mark.parametrize("staged", [False, True], ids=["bare", "stage_cause"])
@pytest.mark.parametrize(
    "error, code",
    [
        (DatasetFormatError("bad manifest"), EXIT_DATA),
        (np.linalg.LinAlgError("singular"), EXIT_NUMERIC),
        (FloatingPointError("overflow"), EXIT_NUMERIC),
        (ValueError("bad value"), EXIT_CONFIG),
        (KeyError("no such key"), EXIT_CONFIG),
        (OSError("no such file"), EXIT_CONFIG),
    ],
)
def test_an_error_and_a_stage_cause_map_to_one_exit_code(monkeypatch, capsys, error, code, staged):
    raised = PipelineError("train", error) if staged else error
    monkeypatch.setitem(nirscope.cli._COMMANDS, "train", _failing_command(raised))
    assert main(["train", "--dataset", "d"]) == code
    assert ("stage 'train'" in capsys.readouterr().err) == staged


def test_unexpected_error_is_a_config_error_only_inside_a_stage(monkeypatch):
    error = TypeError("bug")
    monkeypatch.setitem(nirscope.cli._COMMANDS, "train", _failing_command(error))
    with pytest.raises(TypeError):
        main(["train", "--dataset", "d"])
    staged = PipelineError("train", error)
    monkeypatch.setitem(nirscope.cli._COMMANDS, "train", _failing_command(staged))
    assert main(["train", "--dataset", "d"]) == EXIT_CONFIG


# Characterization digests of summary-mode `run` attributions, recorded on the
# commit before the tree code walked all trees at once and the attribution
# shared each fold's coalitions. The default k=20 keeps 16 and 18 groups per
# fold (kernel path); k=8 keeps at most 8 (exact path).
GOLDEN_RUN_SUMMARY_SHA256 = {
    ("rf", None): (
        "d816c296bd71a2c407e09855c33fc970ef749e2fe07ce9b8311b2722ae05d194",
        "aad5287bcca0d2ff0711aa8214abd8d8cc278739aad172ea7b1102aa07c20764",
    ),
    ("gbdt", None): (
        "6461d247fb124edd606d9923c04055d7decced007c6ac6ee7bdc73fae805a8f9",
        "ef96b7c367d3279cdbe95184473adf8921f2e9289c7a21eb00905825e882c191",
    ),
    ("rf", "8"): (
        "8c6472c6874286027742322e878ff44bbfe4d156b90d5c38f5ef4a736b75fdd7",
        "5fba4446bfd1963378a82022ec57d289a2842bc2d744815bdb34e1dceae330bf",
    ),
    ("gbdt", "8"): (
        "69ccbc974c418c15ca99d8f8c661a0a0e6dc57a387efbf05b374aba74072a4f9",
        "4ee0ff6a9dab32fc26e12c0019cf839b054bd9caab4c835ed1515d49bfb0af57",
    ),
}


@pytest.mark.parametrize("model,select_k", sorted(GOLDEN_RUN_SUMMARY_SHA256, key=str))
def test_summary_run_attributions_match_golden_digests(golden_dataset, tmp_path, model, select_k):
    out = tmp_path / "report"
    argv = ["run", "--dataset", str(golden_dataset), "--out", str(out), "--folds", "2",
            "--seed", "1", "--feature-mode", "summary", "--model", model]
    if select_k is not None:
        argv += ["--select-k", select_k]
    assert main(argv) == EXIT_OK
    got = tuple(
        _sha256((out / name).read_bytes()) for name in ("channel_importance.csv", "metrics.txt")
    )
    assert got == GOLDEN_RUN_SUMMARY_SHA256[(model, select_k)]


# Recorded on the commit before epochs became one (trials x channels x window)
# array per chromophore. A hemo container loads column-major, so the summary
# runs cover features computed from strided series; the raw runs cover the
# stats report and both figures at each pooling level.
GOLDEN_HEMO_SUMMARY_RUN_SHA256 = {
    "knn": (
        "e7606f6190ea6469e2294ceca0890a86cd7010a1793a67429dc161076373897c",
        "f93b2f803464189e8db480602c4818920b48f8ba33d2f70b6ac1bf6a5fa862b4",
    ),
    "gbdt": (
        "6461d247fb124edd606d9923c04055d7decced007c6ac6ee7bdc73fae805a8f9",
        "ef96b7c367d3279cdbe95184473adf8921f2e9289c7a21eb00905825e882c191",
    ),
}
# The figures do not depend on the pooling level, only stats_tests.txt does.
_GOLDEN_RUN_FIGURES = {
    "block_average_curves.svg": "7cb2d2a298ad3bc295bfd7c104c3576dec511d3d5e0b87cc6f27db365bce708d",
    "time_to_peak.svg": "af39b311442e8d4b8397b235432efe26a507fd99e11d9f46d13bbebb3fb60ad8",
}
GOLDEN_RUN_FIGURES_SHA256 = {
    "sample": {
        "stats_tests.txt": "95c88ea20422d2edc9c5ebb3281efcea6ffc635ff9a7abb0b06306b7126808d9",
        **_GOLDEN_RUN_FIGURES,
    },
    "trial": {
        "stats_tests.txt": "7638d88edfc365d2e17589f4f5780ea96418d4207bb79b03c320a8d32228e5cc",
        **_GOLDEN_RUN_FIGURES,
    },
}
GOLDEN_EPOCH_STDOUT_SHA256 = "7275320f2f46c9048394558259431b58d11c194021e74cb367b3b7c0c14f0c85"
# The preprocessed container of GOLDEN_SYNTH: every CSV and the manifest's
# files, annotations and provenance, recorded before save_dataset and
# load_dataset took the per-kind file layout from one table.
GOLDEN_HEMO_SHA256 = "687f1c20d81395b48f125d2b567d4351122062798212240c9c93b82aef6b2a3d"


@pytest.fixture(scope="module")
def golden_hemo(golden_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "hemo"
    assert main(["preprocess", "--dataset", str(golden_dataset), "--out", str(out)]) == EXIT_OK
    return out


def test_hemo_container_matches_golden_digest(golden_hemo):
    assert _tree_sha256(golden_hemo) == GOLDEN_HEMO_SHA256


@pytest.mark.parametrize("model", sorted(GOLDEN_HEMO_SUMMARY_RUN_SHA256))
def test_summary_run_on_hemo_container_matches_golden_digests(golden_hemo, tmp_path, model):
    out = tmp_path / "report"
    argv = ["run", "--dataset", str(golden_hemo), "--out", str(out), "--folds", "2",
            "--seed", "1", "--feature-mode", "summary", "--model", model]
    assert main(argv) == EXIT_OK
    got = tuple(
        _sha256((out / name).read_bytes()) for name in ("channel_importance.csv", "metrics.txt")
    )
    assert got == GOLDEN_HEMO_SUMMARY_RUN_SHA256[model]


@pytest.mark.parametrize("pool", sorted(GOLDEN_RUN_FIGURES_SHA256))
def test_run_stats_and_figures_match_golden_digests(golden_dataset, tmp_path, pool):
    out = tmp_path / "report"
    argv = ["run", "--dataset", str(golden_dataset), "--out", str(out), "--folds", "2",
            "--samples", "64", "--seed", "1", "--pool", pool]
    assert main(argv) == EXIT_OK
    expected = GOLDEN_RUN_FIGURES_SHA256[pool]
    assert {name: _sha256((out / name).read_bytes()) for name in expected} == expected
    # Each p is its own tail, so none underflows to a printed 0.
    ps = re.findall(r"\bp = ([^,\s]+)", (out / "stats_tests.txt").read_text())
    assert ps and all(float(p) > 0.0 for p in ps)


# A non-finite value anywhere in a hemo file, time stamps included, stops the
# run at ingest with its file and line, before any report is written.
@pytest.mark.parametrize(
    "lineno, column, value",
    [(501, "S2-D3", "nan"), (102, "S2-D3", "inf"), (None, "S2-D3", "nan"), (900, "t_s", "-inf")],
    ids=["one-nan", "one-inf", "nan-column", "time-inf"],
)
def test_run_refuses_a_non_finite_hemo_value_at_ingest(
    golden_hemo, tmp_path, capsys, lineno, column, value
):
    dataset = tmp_path / "hemo"
    shutil.copytree(golden_hemo, dataset)
    path = dataset / "P01_hbr.csv"
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    for i in range(1, len(lines)) if lineno is None else (lineno - 1,):
        cells = lines[i].split(",")
        cells[col] = value
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report"
    capsys.readouterr()
    argv = ["run", "--dataset", str(dataset), "--out", str(out), "--folds", "2", "--seed", "1"]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert "stage 'ingest'" in err
    assert f"{path}:{lineno or 2}: non-finite value" in err
    assert not out.exists()


def test_epoch_stdout_matches_golden_digest(golden_hemo, capsys):
    capsys.readouterr()
    assert main(["epoch", "--dataset", str(golden_hemo)]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == GOLDEN_EPOCH_STDOUT_SHA256


# --- the analysed task ---


def _analysis_argv(command, golden_dataset, golden_hemo, out) -> list[str]:
    """``command`` on the golden data: run and train on the raw container,
    report on the preprocessed one."""
    if command == "report":
        return ["report", "--dataset", str(golden_hemo), "--out", str(out)]
    argv = [command, "--dataset", str(golden_dataset), "--folds", "2", "--seed", "1"]
    return argv + (["--out", str(out), "--samples", "64"] if command == "run" else [])


@pytest.mark.parametrize("command", ["run", "train", "report"])
def test_run_train_and_report_cut_only_the_analysed_task(
    golden_dataset, golden_hemo, tmp_path, monkeypatch, command
):
    import nirscope.epochs

    segment, cut = nirscope.epochs.segment, []

    def spy(*args, **kwargs):
        cut.append(segment(*args, **kwargs))
        return cut[-1]

    monkeypatch.setattr(nirscope.epochs, "segment", spy)
    argv = _analysis_argv(command, golden_dataset, golden_hemo, tmp_path / "out")
    assert main(argv + ["--task", "dual"]) == EXIT_OK
    [epochs] = cut
    assert epochs.tasks == ("dual",) * 20  # 4 participants, 5 dual blocks each


@pytest.mark.parametrize("command", ["run", "train", "report"])
def test_a_task_with_no_trials_fails_in_the_epoch_stage(
    golden_dataset, golden_hemo, tmp_path, capsys, command
):
    out = tmp_path / "out"
    argv = _analysis_argv(command, golden_dataset, golden_hemo, out)
    capsys.readouterr()
    assert main(argv + ["--task", "nosuch"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "stage 'epoch'" in err and "no epochs match task 'nosuch'" in err
    assert not out.exists()


def test_epoch_counts_every_task_when_none_is_the_one_named(golden_hemo, capsys):
    capsys.readouterr()
    assert main(["epoch", "--dataset", str(golden_hemo), "--task", "nosuch"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("40 epochs total, 0 for task 'nosuch', ")


@pytest.mark.parametrize("command", ["run", "report", "epoch"])
def test_a_window_shorter_than_one_sample_fails_in_the_epoch_stage(
    golden_dataset, golden_hemo, tmp_path, capsys, command
):
    # floor(0.1 s * 3.9 Hz) is 0 samples, and 1e308 s * 3.9 Hz overflows to inf.
    if command == "epoch":
        argv = ["epoch", "--dataset", str(golden_hemo)]
    else:
        argv = _analysis_argv(command, golden_dataset, golden_hemo, tmp_path / "out")
    for window, cause in (("0.1", "window_s 0.1 s holds no sample at 3.9 Hz"),
                          ("1e308", "window_s 1e+308 s holds no finite sample count at 3.9 Hz")):
        capsys.readouterr()
        assert main(argv + ["--window", window]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert cause in err
        assert command == "epoch" or "stage 'epoch'" in err
        assert list(tmp_path.iterdir()) == []


def test_a_band_pass_above_nyquist_fails_in_the_preprocess_stage(
    golden_dataset, golden_hemo, tmp_path, capsys
):
    # The design is first needed when a batch has been preprocessed.
    argv = _analysis_argv("run", golden_dataset, golden_hemo, tmp_path / "out")
    capsys.readouterr()
    assert main(argv + ["--high-cut", "1.96"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "stage 'preprocess'" in err
    assert "high cutoff 1.96 Hz is at or above Nyquist (1.95 Hz)" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("pid", [7, ""], ids=["int", "empty"])
def test_a_participant_id_that_is_not_a_nonempty_string_is_a_data_error(
    golden_hemo, tmp_path, capsys, pid
):
    dataset = tmp_path / "hemo"
    shutil.copytree(golden_hemo, dataset)
    manifest = json.loads((dataset / "manifest.json").read_text())
    manifest["participants"][0]["id"] = pid
    (dataset / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "report"
    capsys.readouterr()
    argv = ["run", "--dataset", str(dataset), "--out", str(out), "--folds", "2", "--seed", "1"]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert "stage 'ingest'" in err
    assert f"{dataset / 'manifest.json'}: participant id must be a nonempty string, got {pid!r}" in err
    assert not out.exists()


# Recorded when the fold plan was built from the epochs of every task: P01
# has no single block, but its series still takes a place in the plan, as
# its dual trials gave it one there. The epoch set's participant table now
# holds every series, so `run` and the library recipe deal these folds.
MISSING_TASK_FOLDS = [
    "  fold 0: test = P01, C03",
    "  fold 1: test = P02, C01",
    "  fold 2: test = P03, C02",
]
MISSING_TASK_METRICS_SHA256 = "fdac3c0bff166266f192c164b1f2d9eccbea7d0cbaf2de29973f43ba05df3e40"


def test_a_participant_without_the_task_keeps_its_place_in_the_fold_plan(
    tmp_path, monkeypatch
):
    raw, hemo = tmp_path / "raw", tmp_path / "hemo"
    synth = ["synth", "--patients", "3", "--controls", "3", "--trials", "2", "--seed", "1"]
    assert main(synth + ["--out", str(raw)]) == EXIT_OK
    assert main(["preprocess", "--dataset", str(raw), "--out", str(hemo)]) == EXIT_OK
    for dataset in (raw, hemo):
        manifest = json.loads((dataset / "manifest.json").read_text())
        p01 = manifest["participants"][0]
        assert p01["id"] == "P01"
        p01["annotations"] = [a for a in p01["annotations"] if a[2] != "single"]
        (dataset / "manifest.json").write_text(json.dumps(manifest))
    # The raw container is preprocessed one recording per batch, so P01's
    # batch has no trial of the task.
    monkeypatch.setattr(nirscope.pipeline, "_BATCH_BYTES", 1)
    for dataset in (hemo, raw):
        out = tmp_path / f"report-{dataset.name}"
        argv = ["run", "--dataset", str(dataset), "--out", str(out), "--folds", "3",
                "--seed", "1", "--samples", "64"]
        assert main(argv) == EXIT_OK
        provenance = (out / "provenance.txt").read_text().splitlines()
        assert [line for line in provenance if line.startswith("  fold ")] == MISSING_TASK_FOLDS
        assert _sha256((out / "metrics.txt").read_bytes()) == MISSING_TASK_METRICS_SHA256
    # README's library recipe, on the epochs of every task or of the task only.
    loaded = load_dataset(hemo)
    for epochs in (epochs_from_dataset(loaded, PipelineConfig()),
                   segment(loaded.hemo, task="single")):
        plan = make_fold_plan(epochs.participants, n_folds=3, seed=1)
        folds = [f"  fold {i}: test = {', '.join(ids)}" for i, ids in enumerate(plan.folds)]
        assert folds == MISSING_TASK_FOLDS


# --- memory of a whole run ---

# The benchmark's default run: knn on raw features, 12 + 12 participants
# with the synthetic effect.
DEFAULT_RUN = [
    "run", "--out", "report", "--seed", "1", "--model", "knn",
    "--patients", "12", "--controls", "12", "--trials", "5",
    "--effect-channels", "S7-D6", "S5-D6", "--amplitude-ratio", "0.5", "--peak-delay", "1.5",
]


def _child_env(**settings) -> dict:
    """The environment of a child interpreter that imports this nirscope,
    with ``settings`` added."""
    env = {**os.environ, **settings}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(nirscope.cli.__file__).parent.parent), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


# Starts the command in argv[1:] and prints its exit code and ru_maxrss (kB).
_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mb(code: str, cwd: Path) -> float:
    """Peak RSS of a fresh interpreter that runs ``code``, read from wait4.

    A child's ru_maxrss also counts the resident memory of the process it
    was forked from, so the interpreter is started by a small launcher, not
    by the test process.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-c", code],
        cwd=cwd, env=_child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, maxrss_kb = map(int, proc.stdout.split())
    assert exit_code == 0, proc.stderr
    return maxrss_kb / 1024


@pytest.fixture(scope="module")
def interpreter_mb(tmp_path_factory) -> tuple[Path, float]:
    """A directory to run in, and the peak RSS of an interpreter there that
    imports nirscope.

    Importing compiles every module whose bytecode cache is missing or
    stale, and writes the cache where it can, which lifts that process's
    peak. So a first, unmeasured child imports nirscope and leaves the cache
    as every measured child then finds it.
    """
    cwd = tmp_path_factory.mktemp("rss")
    _peak_rss_mb("import nirscope.cli", cwd)
    return cwd, _peak_rss_mb("import nirscope.cli", cwd)


def _beyond_the_interpreter_mb(argv: list[str], interpreter_mb) -> float:
    """Peak RSS of ``nirscope argv`` minus that of the interpreter importing nirscope."""
    cwd, interpreter = interpreter_mb
    run = _peak_rss_mb(f"import sys; from nirscope.cli import main; sys.exit(main({argv!r}))", cwd)
    return run - interpreter


@pytest.fixture(scope="module")
def default_run_beyond_the_interpreter_mb(interpreter_mb) -> float:
    return _beyond_the_interpreter_mb(DEFAULT_RUN, interpreter_mb)


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in kB from os.wait4")
def test_default_run_holds_under_45_mb_beyond_the_interpreter(
    default_run_beyond_the_interpreter_mb,
):
    # The run's data: 17.6 MB of raw intensities and 12.6 MB of hemoglobin,
    # and the epochs cut from it. The bound admits a run that holds all the
    # raw data and all the hemoglobin at once, but not one that also
    # band-passes through a padded copy: holding the raw data to the end and
    # band-passing through a padded copy took 62 MB over the interpreter.
    assert default_run_beyond_the_interpreter_mb < 45.0


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in kB from os.wait4")
def test_default_run_holds_under_35_mb_beyond_the_interpreter(
    default_run_beyond_the_interpreter_mb,
):
    # Each array is held only while a later stage reads it: one raw
    # recording (0.7 MB) at a time, generated as preprocessing reads it, and
    # one batch of at most 13 recordings' hemoglobin (6.8 MB), until its
    # epochs are cut. The run took 25.2 MB over the interpreter, its peak in
    # training; when every recording's hemoglobin (12.6 MB) was held until
    # one band-pass, it took 27.6 MB, its peak beside the last recording's
    # motion correction, and with every raw recording generated up front and
    # the hemoglobin held to the report, 39 MB.
    assert default_run_beyond_the_interpreter_mb < 35.0


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in kB from os.wait4")
def test_low_cut_run_holds_under_35_mb_beyond_the_interpreter(interpreter_mb):
    # A 0.01 Hz low cut settles over 1,361 samples, not 305, and the
    # band-pass holds that many samples of every row of its call beside its
    # output. Band-passing every recording in one call took 39.1 MB over the
    # interpreter; one batch at a time, 27.3 MB.
    argv = DEFAULT_RUN + ["--low-cut", "0.01"]
    assert _beyond_the_interpreter_mb(argv, interpreter_mb) < 35.0


# --- artifacts do not depend on the environment ---

ENV_RUN = [
    "run", "--patients", "6", "--controls", "6", "--trials", "3", "--folds", "3",
    "--seed", "3", "--effect-channels", "S7-D6", "--amplitude-ratio", "0.5",
]


@pytest.mark.parametrize("model, features", [("knn", "raw"), ("svm", "summary")])
def test_run_artifacts_do_not_depend_on_the_environment(tmp_path, model, features):
    # String hashing is salted per process unless PYTHONHASHSEED fixes it,
    # and OpenBLAS splits a product over as many threads as there are cores
    # unless OPENBLAS_NUM_THREADS says otherwise: neither may reach a report.
    reports = []
    for name, value in (("PYTHONHASHSEED", "0"), ("PYTHONHASHSEED", "12345"),
                        ("OPENBLAS_NUM_THREADS", "1")):
        out = tmp_path / f"{name}={value}"
        argv = [*ENV_RUN, "--model", model, "--feature-mode", features, "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "nirscope.cli", *argv], env=_child_env(**{name: value}),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append({f: (out / f).read_bytes() for f in REPORT_FILES})
    for name in REPORT_FILES:
        assert reports[0][name] == reports[1][name] == reports[2][name], name
