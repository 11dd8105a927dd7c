import hashlib
import json

import numpy as np
import pytest

import nirscope.cli
from nirscope.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    _config_from_args,
    build_parser,
    main,
)
from nirscope.model import DatasetFormatError, load_dataset
from nirscope.pipeline import REPORT_FILES, PipelineConfig, PipelineError
from nirscope.synth import parse_ground_truth

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
    gt = parse_ground_truth((out / "ground_truth.json").read_text())
    assert gt.discriminative == (("S7-D6", "hbr"), ("S5-D6", "hbr"))


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


def test_stats_rejects_mixed_inputs(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("1\n2\n")
    code = main(
        ["stats", "ttest", "--csv", str(f), "--summary", "5,0,1"]
    )
    assert code == EXIT_CONFIG


def test_run_writes_all_report_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--out", str(out)] + SMALL_RUN)
    assert code == EXIT_OK
    for name in REPORT_FILES:
        assert (out / name).is_file(), name
    stdout = capsys.readouterr().out
    assert "pooled accuracy" in stdout
    assert "top channels" in stdout


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


def test_report_failure_removes_outputs_and_names_stage(
    golden_dataset, tmp_path, monkeypatch, capsys
):
    import nirscope.report

    def broken(*args, **kwargs):
        raise ValueError("no bars")

    monkeypatch.setattr(nirscope.report, "svg_group_bars", broken)
    out = tmp_path / "figures"
    code = main(["report", "--dataset", str(golden_dataset), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "stage 'report'" in capsys.readouterr().err
    assert not (out / "block_average_curves.svg").exists()


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
        samples = rec.intensity[rec.wavelengths_nm[0]][0, ::40]
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


def test_train_with_excessive_k_names_features_stage(golden_dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["train", "--dataset", str(golden_dataset), "--folds", "2", "--select-k", "999999"]
    assert main(argv) == EXIT_CONFIG
    assert "stage 'features'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # train writes nothing, not even a directory


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
