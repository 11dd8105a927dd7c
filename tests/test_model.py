import dataclasses
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_recording
from nirscope import synth
from nirscope.cli import EXIT_DATA, main
from nirscope.model import (
    Annotation,
    Channel,
    Dataset,
    DatasetFormatError,
    EpochSet,
    HemoSeries,
    Montage,
    ProvenanceStep,
    Recording,
    _fmt,
    _read_series_csv,
    _write_series_csv,
    load_dataset,
    save_dataset,
)


def _dataset(small_montage, seed=0, annotations=()):
    rec = make_recording(small_montage, seed=seed, annotations=annotations)
    return Dataset(montage=small_montage, recordings=(rec,), creator="test", seed=seed)


def test_save_load_round_trip_intensity(small_montage, tmp_path):
    d = _dataset(small_montage, annotations=[Annotation(5.0, 20.0, "single")])
    save_dataset(d, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded == d


def test_save_load_round_trip_hemo(small_montage, tmp_path):
    rng = np.random.default_rng(1)
    hemo = HemoSeries(
        participant_id="P01",
        group="control",
        sample_rate_hz=3.9,
        channel_ids=tuple(ch.id for ch in small_montage.long_channels),
        hemo=rng.normal(size=(2, 2, 100)) * 1e-6,
        annotations=(Annotation(3.0, 10.0, "single"),),
        provenance=(ProvenanceStep.make("bandpass", low_cut_hz=0.05),),
    )
    d = Dataset(montage=small_montage, hemo=(hemo,), creator="test")
    save_dataset(d, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded == d


def test_second_save_is_byte_identical(small_montage, tmp_path):
    d = _dataset(small_montage)
    save_dataset(d, tmp_path / "a")
    first = {p.name: p.read_bytes() for p in sorted((tmp_path / "a").iterdir())}
    loaded = load_dataset(tmp_path / "a")
    save_dataset(loaded, tmp_path / "b")
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "b").iterdir())}
    assert first == second


def test_save_refuses_an_empty_dataset_before_writing(small_montage, tmp_path):
    # load_dataset refuses a container that lists no participants, so none
    # is written.
    d = Dataset(montage=small_montage, creator="test")
    with pytest.raises(ValueError, match="the dataset has no participants"):
        save_dataset(d, tmp_path / "empty")
    assert not (tmp_path / "empty").exists()


def test_save_refuses_mixed_sample_rates_before_writing(small_montage, tmp_path):
    # The manifest holds one sample rate; a second rate would load back as
    # the first.
    slow = make_recording(small_montage, fs=3.9)
    fast = dataclasses.replace(make_recording(small_montage, fs=7.8), participant_id="C01")
    d = Dataset(montage=small_montage, recordings=(slow, fast), creator="test")
    with pytest.raises(ValueError, match=r"C01 is sampled at 7\.8 Hz, participant P01 at 3\.9 Hz"):
        save_dataset(d, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_save_refuses_mixed_wavelengths_before_writing(small_montage, tmp_path):
    # The manifest holds one wavelength pair; a second pair would fail to load
    # with a missing manifest key that names neither participant nor cause.
    rec = make_recording(small_montage)
    other = dataclasses.replace(
        rec,
        participant_id="C01",
        wavelengths_nm=(780.0, 850.0),
    )
    d = Dataset(montage=small_montage, recordings=(rec, other), creator="test")
    with pytest.raises(
        ValueError,
        match=r"C01 is recorded at \(780\.0, 850\.0\) nm, participant P01 at \(760\.0, 850\.0\) nm",
    ):
        save_dataset(d, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_equality_compares_arrays_and_dicts_by_value(small_montage):
    rec = make_recording(small_montage)
    copied = dataclasses.replace(rec, intensity=rec.intensity.copy())
    assert copied == rec
    assert Dataset(montage=small_montage, recordings=(copied,)) == Dataset(
        montage=small_montage, recordings=(rec,)
    )
    changed = rec.intensity.copy()
    changed[1, 0, 0] += 1e-9
    assert dataclasses.replace(rec, intensity=changed) != rec
    reordered = dict(reversed(small_montage.roi_map.items()))
    assert dataclasses.replace(small_montage, roi_map=reordered) == small_montage
    assert dataclasses.replace(small_montage, roi_map={"left": ("S1-D1",)}) != small_montage
    assert rec != "P01"


def test_missing_manifest(tmp_path):
    with pytest.raises(DatasetFormatError, match="missing manifest"):
        load_dataset(tmp_path)


def test_missing_participant_file(small_montage, tmp_path):
    d = _dataset(small_montage)
    save_dataset(d, tmp_path / "ds")
    (tmp_path / "ds" / "P01_wl760.csv").unlink()
    with pytest.raises(DatasetFormatError, match="missing participant file"):
        load_dataset(tmp_path / "ds")


def test_schema_version_mismatch(small_montage, tmp_path):
    d = _dataset(small_montage)
    save_dataset(d, tmp_path / "ds")
    manifest = tmp_path / "ds" / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"schema_version": 1', '"schema_version": 99'))
    with pytest.raises(DatasetFormatError, match="schema-version mismatch"):
        load_dataset(tmp_path / "ds")


def test_channel_length_mismatch_reports_line(small_montage, tmp_path):
    d = _dataset(small_montage)
    save_dataset(d, tmp_path / "ds")
    path = tmp_path / "ds" / "P01_wl760.csv"
    lines = path.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1])  # drop one column on line 4
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"P01_wl760\.csv:4"):
        load_dataset(tmp_path / "ds")


def test_nonpositive_intensity_reports_line(small_montage, tmp_path):
    d = _dataset(small_montage)
    save_dataset(d, tmp_path / "ds")
    path = tmp_path / "ds" / "P01_wl850.csv"
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[1] = "-0.5"
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="non-positive intensity"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("column, value", [(2, "nan"), (3, "-inf"), (0, "inf")])
def test_non_finite_intensity_reports_line(small_montage, tmp_path, column, value):
    d = _dataset(small_montage)
    save_dataset(d, tmp_path / "ds")
    path = tmp_path / "ds" / "P01_wl850.csv"
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[column] = value
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"P01_wl850\.csv:3: non-finite value"):
        load_dataset(tmp_path / "ds")


def test_round_trip_over_randomized_datasets(small_montage, tmp_path):
    # magnitudes spanning many decades still round-trip bit-exactly
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        scale = 10.0 ** rng.integers(-200, 200)
        intensity = scale * (1.0 + rng.random((2, 3, n)))
        annotations = []
        t = float(rng.uniform(0, 2))
        while t + 3.0 < n / 3.9:
            annotations.append(Annotation(t, 2.5, rng.choice(["single", "dual", "rest"])))
            t += 3.0 + float(rng.uniform(0, 2))
        rec = Recording(
            participant_id=f"R{seed}",
            group="control",
            sample_rate_hz=3.9,
            wavelengths_nm=(760.0, 850.0),
            channel_ids=small_montage.channel_ids,
            intensity=intensity,
            annotations=tuple(annotations),
        )
        d = Dataset(montage=small_montage, recordings=(rec,), seed=seed)
        save_dataset(d, tmp_path / f"ds{seed}")
        assert load_dataset(tmp_path / f"ds{seed}") == d


def _write_series_csv_loop(path, channel_ids, rows, fs):
    """Reference: one _fmt call per value (the container writer's earlier form)."""
    lines = ["t_s," + ",".join(channel_ids)]
    for i in range(rows.shape[1]):
        lines.append(_fmt(i / fs) + "," + ",".join(_fmt(v) for v in rows[:, i]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _read_series_csv_lines(path, expect_channels, positive):
    """Reference: the container reader as a plain line-by-line parser."""
    if not path.is_file():
        raise DatasetFormatError(f"missing participant file: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}:1: empty channel file")
    header = lines[0].split(",")
    if header[0] != "t_s" or tuple(header[1:]) != tuple(expect_channels):
        raise DatasetFormatError(
            f"{path}:1: header does not match the manifest channel list"
        )
    n_cols = len(header)
    data = np.empty((len(lines) - 1, n_cols - 1), dtype=float)
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise DatasetFormatError(
                f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)} "
                "(channel-length mismatch)"
            )
        try:
            t = float(parts[0])
            data[lineno - 2] = [float(p) for p in parts[1:]]
        except ValueError as e:
            raise DatasetFormatError(f"{path}:{lineno}: {e}") from e
        if not (np.isfinite(t) and np.all(np.isfinite(data[lineno - 2]))):
            raise DatasetFormatError(f"{path}:{lineno}: non-finite value")
        if positive and np.any(data[lineno - 2] <= 0):
            raise DatasetFormatError(
                f"{path}:{lineno}: non-positive intensity value"
            )
    return data.T


_BODY = ["0,1.5,2.25", "0.25,1.75,2.5", "0.5,1.25,3", "0.75,1,4"]


def _with_line(i, line):
    body = list(_BODY)
    body[i] = line
    return body


# Body lines after the "t_s,A,B" header; line numbers in errors count the
# header as line 1.
LOADER_CASES = {
    "clean": _BODY,
    "hash_inside_value": _with_line(1, "0.25,1.75,2.5#9"),
    "blank_line_in_middle": _BODY[:2] + [""] + _BODY[2:],
    "blank_line_at_end": _BODY + [""],
    "spaces_around_values": _with_line(2, " 0.5 , 1.25 ,\t3 "),
    "underscore_digits": _with_line(1, "0.25,1_0,2.5"),
    "nan": _with_line(1, "0.25,nan,2.5"),
    "inf": _with_line(1, "0.25,inf,-inf"),
    "negative_zero": _with_line(1, "0.25,-0,2.5"),
    "short_row_on_line_4": _with_line(2, "0.5,1.25"),
    "non_positive_on_line_3": _with_line(1, "0.25,-1.75,2.5"),
    "header_only": [],
    "bad_time_value": _with_line(0, "zero,1.5,2.25"),
    "extra_column": _with_line(3, "0.75,1,4,5"),
}


@pytest.mark.parametrize("positive", [True, False])
@pytest.mark.parametrize("case", sorted(LOADER_CASES))
def test_loader_matches_line_parser(tmp_path, case, positive):
    path = tmp_path / "series.csv"
    path.write_text("\n".join(["t_s,A,B", *LOADER_CASES[case]]) + "\n")
    try:
        ref = _read_series_csv_lines(path, ("A", "B"), positive)
    except DatasetFormatError as e:
        with pytest.raises(DatasetFormatError) as got:
            _read_series_csv(path, ("A", "B"), positive)
        assert str(got.value) == str(e)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        got = _read_series_csv(path, ("A", "B"), positive)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.strides == ref.strides
    assert got.tobytes() == ref.tobytes()


def test_loader_matches_line_parser_on_written_files(tmp_path):
    rng = np.random.default_rng(7)
    ids = tuple(f"S{i}-D{i}" for i in range(1, 6))
    for positive, rows in ((True, 1.0 + rng.random((5, 300))),
                           (False, rng.normal(size=(5, 300)) * 1e-6),
                           (False, rng.normal(size=(5, 1)))):
        path = tmp_path / "series.csv"
        _write_series_csv(path, ids, rows, 3.9)
        got = _read_series_csv(path, ids, positive)
        ref = _read_series_csv_lines(path, ids, positive)
        assert got.strides == ref.strides and got.tobytes() == ref.tobytes()
        assert got.tobytes() == rows.tobytes()


def test_writer_matches_per_value_formatting(tmp_path):
    special = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 1 / 3,
               np.nan, np.inf, -np.inf]
    rng = np.random.default_rng(3)
    cases = [
        np.array([special, special[::-1]]),
        rng.normal(size=(4, 50)) * 10.0 ** rng.integers(-300, 300, size=(4, 50)),
        np.empty((3, 0)),
    ]
    for k, rows in enumerate(cases):
        ids = [f"c{i}" for i in range(rows.shape[0])]
        for fs in (3.9, 1.0, 7.8125):
            _write_series_csv(tmp_path / "got.csv", ids, rows, fs)
            _write_series_csv_loop(tmp_path / "ref.csv", ids, rows, fs)
            got, ref = (tmp_path / "got.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()
            assert got == ref, (k, fs)


def test_intensity_manifest_requires_wavelengths(small_montage, tmp_path):
    d = _dataset(small_montage)
    save_dataset(d, tmp_path / "ds")
    manifest = tmp_path / "ds" / "manifest.json"
    obj = json.loads(manifest.read_text())
    obj["wavelengths_nm"] = None
    manifest.write_text(json.dumps(obj))
    with pytest.raises(DatasetFormatError, match="wavelengths_nm"):
        load_dataset(tmp_path / "ds")


def _hemo_dataset(small_montage):
    rng = np.random.default_rng(1)
    hemo = HemoSeries(
        participant_id="P01",
        group="control",
        sample_rate_hz=3.9,
        channel_ids=tuple(ch.id for ch in small_montage.long_channels),
        hemo=rng.normal(size=(2, 2, 100)) * 1e-6,
        annotations=(Annotation(3.0, 10.0, "single"),),
    )
    return Dataset(montage=small_montage, hemo=(hemo,), creator="test")


@pytest.mark.parametrize(
    "kind, key, value, message",
    [
        ("hemo", "data_kind", "hemoglobin", "data_kind must be 'intensity' or 'hemo'"),
        ("intensity", "data_kind", "raw", "data_kind must be 'intensity' or 'hemo'"),
        ("hemo", "sample_rate_hz", None, "hemo datasets need sample_rate_hz"),
        ("hemo", "sample_rate_hz", "abc", "sample_rate_hz must be a number, got 'abc'"),
        ("intensity", "wavelengths_nm", ["760", "red"], "wavelengths_nm must be a list of numbers"),
        ("hemo", "sample_rate_hz", "0", "sample rate must be positive and finite, got 0.0"),
        ("hemo", "sample_rate_hz", "-3.9", "sample rate must be positive and finite, got -3.9"),
        ("intensity", "sample_rate_hz", "nan", "sample rate must be positive and finite, got nan"),
    ],
    ids=["hemo-kind-hemoglobin", "raw-kind-raw", "hemo-rate-null", "hemo-rate-abc",
         "raw-wavelength-red", "hemo-rate-zero", "hemo-rate-negative", "raw-rate-nan"],
)
def test_bad_manifest_header_is_a_data_error_naming_the_manifest(
    small_montage, tmp_path, capsys, kind, key, value, message
):
    dataset = _dataset(small_montage) if kind == "intensity" else _hemo_dataset(small_montage)
    save_dataset(dataset, tmp_path / "ds")
    manifest = tmp_path / "ds" / "manifest.json"
    obj = json.loads(manifest.read_text())
    obj[key] = value
    manifest.write_text(json.dumps(obj))
    with pytest.raises(DatasetFormatError, match=message) as error:
        load_dataset(tmp_path / "ds")
    assert str(error.value).startswith(f"{manifest}: ")
    assert main(["epoch", "--dataset", str(tmp_path / "ds")]) == EXIT_DATA
    assert f"data error: {manifest}: " in capsys.readouterr().err


# Manifests of the wrong JSON shape below the header: the value at each key
# path (the empty path is the whole manifest) is replaced. Each of these once
# escaped the loader as a TypeError or AttributeError.
@pytest.mark.parametrize(
    "key_path, value",
    [
        ((), [1]),
        (("participants",), {"P01": {}}),
        (("participants", 0), ["P01"]),
        (("participants", 0, "files"), "x"),
        (("participants", 0, "provenance"), [["x", [1]]]),
        (("montage", "roi_map"), ["left"]),
    ],
    ids=["top-level-list", "participants-object", "participant-list", "files-string",
         "provenance-params-list", "roi-map-list"],
)
def test_malformed_manifest_is_a_data_error_naming_the_manifest(
    small_montage, tmp_path, capsys, key_path, value
):
    save_dataset(_hemo_dataset(small_montage), tmp_path / "ds")
    manifest = tmp_path / "ds" / "manifest.json"
    obj = json.loads(manifest.read_text())
    if key_path:
        *parents, last = key_path
        owner = obj
        for key in parents:
            owner = owner[key]
        owner[last] = value
    else:
        obj = value
    manifest.write_text(json.dumps(obj))
    with pytest.raises(DatasetFormatError) as error:
        load_dataset(tmp_path / "ds")
    assert str(error.value).startswith(f"{manifest}: ")
    assert main(["epoch", "--dataset", str(tmp_path / "ds")]) == EXIT_DATA
    assert f"data error: {manifest}: " in capsys.readouterr().err


def test_synthetic_dataset_matches_generator_counts(tmp_path):
    dataset, _ = synth.generate_dataset(13, 11, seed=5)
    save_dataset(dataset, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert len(loaded.recordings) == 24
    assert len(loaded.montage.long_channels) == 20
    assert loaded == dataset


# --- type invariant rejections, one per invariant ---


def test_montage_rejects_undeclared_source():
    with pytest.raises(ValueError, match="undeclared source"):
        Montage(
            sources=("S1",),
            detectors=("D1",),
            channels=(Channel("S9", "D1", 0.03, "long", "left"),),
        )


def test_montage_rejects_short_not_closer_than_long():
    with pytest.raises(ValueError, match="distance"):
        Montage(
            sources=("S1",),
            detectors=("D1", "SD1"),
            channels=(
                Channel("S1", "D1", 0.01, "long", "left"),
                Channel("S1", "SD1", 0.02, "short", "left"),
            ),
        )


def test_montage_rejects_duplicate_channel_in_roi(small_montage):
    with pytest.raises(ValueError, match="more than once"):
        Montage(
            sources=small_montage.sources,
            detectors=small_montage.detectors,
            channels=small_montage.channels,
            roi_map={"r": ("S1-D1", "S1-D1")},
        )


def test_montage_rejects_unknown_roi_channel(small_montage):
    with pytest.raises(ValueError, match="unknown channel"):
        Montage(
            sources=small_montage.sources,
            detectors=small_montage.detectors,
            channels=small_montage.channels,
            roi_map={"r": ("S9-D9",)},
        )


# What a (2, channels, samples) pair refuses: numpy a ragged one, the record
# every other shape.
BAD_PAIR = r"inhomogeneous|must be \(2, n_channels, n_samples\)"


def test_recording_rejects_length_mismatch(small_montage):
    # The two wavelengths are one (2, channels, samples) array, so a pair of
    # different lengths, or any other shape, is refused when the record is made.
    ragged = [np.ones((3, 50)), np.ones((3, 49))]
    for intensity in (ragged, np.ones((3, 50)), np.ones((3, 3, 50)), np.ones((2, 2, 50)),
                      np.ones((2, 3, 5, 10))):
        with pytest.raises(ValueError, match=BAD_PAIR):
            Recording(
                participant_id="P01",
                group="patient",
                sample_rate_hz=3.9,
                wavelengths_nm=(760.0, 850.0),
                channel_ids=small_montage.channel_ids,
                intensity=intensity,
            )


def test_recording_needs_two_distinct_wavelengths(small_montage):
    rec = make_recording(small_montage)
    for wavelengths in ((760.0, 760.0), (760.0,), (760.0, 850.0, 950.0)):
        with pytest.raises(ValueError, match="two distinct wavelengths"):
            dataclasses.replace(rec, wavelengths_nm=wavelengths)


def test_recording_rejects_nonpositive_intensity(small_montage):
    bad = np.ones((3, 50))
    bad[1, 10] = 0.0
    with pytest.raises(ValueError, match="strictly positive"):
        Recording(
            participant_id="P01",
            group="patient",
            sample_rate_hz=3.9,
            wavelengths_nm=(760.0, 850.0),
            channel_ids=small_montage.channel_ids,
            intensity=[np.ones((3, 50)), bad],
        )


def test_recording_rejects_annotation_past_end(small_montage):
    with pytest.raises(ValueError, match="past the recording end"):
        make_recording(small_montage, n=50, annotations=[Annotation(10.0, 20.0, "single")])


def test_recording_rejects_overlapping_annotations(small_montage):
    with pytest.raises(ValueError, match="overlap"):
        make_recording(
            small_montage,
            n=400,
            annotations=[Annotation(5.0, 20.0, "single"), Annotation(15.0, 20.0, "dual")],
        )


def test_recording_rejects_arbitrary_group(small_montage):
    with pytest.raises(ValueError, match="group"):
        Recording(
            participant_id="P01",
            group="ms",
            sample_rate_hz=3.9,
            wavelengths_nm=(760.0, 850.0),
            channel_ids=small_montage.channel_ids,
            intensity=np.ones((2, 3, 10)),
        )


def test_hemo_rejects_mismatched_chromophores():
    # hbo and hbr are one (2, channels, samples) array, so a pair of different
    # lengths or channels, or any other shape, is refused when the record is made.
    ragged = ([np.zeros((1, 50)), np.zeros((1, 49))], [np.zeros((1, 50)), np.zeros((2, 50))])
    for hemo in (*ragged, np.zeros((1, 50)), np.zeros((1, 1, 50)), np.zeros((2, 2, 50))):
        with pytest.raises(ValueError, match=BAD_PAIR):
            HemoSeries(
                participant_id="P01",
                group="patient",
                sample_rate_hz=3.9,
                channel_ids=("S1-D1",),
                hemo=hemo,
            )


def _epoch_set(hemo, n=1):
    return EpochSet(
        sample_rate_hz=3.9,
        channel_ids=("S1-D1",),
        hemo=hemo,
        participants=(("P01", "patient"),),
        participant_index=[0] * n,
        tasks=("single",) * n,
    )


def test_epoch_set_rejects_wrong_window():
    # A ragged pair, no pair axis, three chromophores, two channels for one id.
    ragged = [np.zeros((1, 1, 10)), np.zeros((1, 1, 12))]
    for hemo in (ragged, np.zeros((1, 1, 10)), np.zeros((1, 3, 1, 10)), np.zeros((1, 2, 2, 10))):
        with pytest.raises(ValueError, match="inhomogeneous|window"):
            _epoch_set(hemo)


def test_epoch_set_rejects_a_task_count_off_the_trials():
    eps = _epoch_set(np.zeros((2, 2, 1, 10)), n=2)
    for tasks in (("single",), ("single",) * 3):
        with pytest.raises(ValueError, match="one participant and task"):
            dataclasses.replace(eps, tasks=tasks)


def test_epoch_set_stores_each_participant_once():
    # One participant in two groups, an index outside the table or not an
    # integer, and an unknown group are refused; a participant with no
    # trial is kept.
    hemo = np.zeros((2, 2, 1, 10))
    table = (("P01", "patient"), ("C01", "control"))
    for participants, index, match in (
        ((("P1", "patient"), ("P1", "control")), [0, 1], "more than once"),
        (table, [0, 2], "must hold integers in"),
        (table, [-1, 0], "must hold integers in"),
        (table, [0, 0.5], "must hold integers in"),
        ((("P01", "sibling"),), [0, 0], "groups must be among"),
    ):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(_epoch_set(hemo, n=2), participants=participants,
                                participant_index=index)
    eps = dataclasses.replace(_epoch_set(hemo, n=2), participants=table)
    assert eps.participants == table
    assert eps.participant_ids.tolist() == ["P01", "P01"]
    assert not eps.participant_index.flags.writeable
    assert eps.rows(group="control").size == 0


def test_epoch_set_holds_c_contiguous_read_only_arrays():
    # A column-major input is copied to C order; the array is frozen.
    hemo = np.asfortranarray(np.arange(40.0).reshape(2, 2, 1, 10))
    eps = _epoch_set(hemo, n=2)
    assert eps.hemo.flags.c_contiguous and not eps.hemo.flags.writeable
    assert np.array_equal(eps.hemo, hemo)
    assert eps.window_samples == 10
    assert eps.rows(task="single", group="patient").tolist() == [0, 1]
    assert eps.rows(task="dual").size == 0


def test_dataset_rejects_duplicate_participants(small_montage):
    rec = make_recording(small_montage)
    with pytest.raises(ValueError, match="unique"):
        Dataset(montage=small_montage, recordings=(rec, rec))


def test_dataset_rejects_recording_channels_other_than_the_montage(small_montage):
    rec = make_recording(small_montage)
    swapped = dataclasses.replace(rec, channel_ids=rec.channel_ids[::-1])
    with pytest.raises(ValueError, match="channels do not match montage"):
        Dataset(montage=small_montage, recordings=(swapped,))


@pytest.mark.parametrize(
    "channel_ids",
    [("S1-D1", "S9-D9"), ("S1-D1", "S1-SD1"), ("S2-D2", "S1-D1")],
    ids=["unknown-channel", "short-channel", "other-order"],
)
def test_dataset_rejects_hemo_series_off_the_long_channels(small_montage, channel_ids):
    hemo = dataclasses.replace(_hemo_dataset(small_montage).hemo[0], channel_ids=channel_ids)
    with pytest.raises(ValueError, match="montage long channels in montage order"):
        Dataset(montage=small_montage, hemo=(hemo,))


def test_dataset_rejects_mixed_payload(small_montage):
    rec = make_recording(small_montage)
    hemo = HemoSeries(
        participant_id="H1",
        group="control",
        sample_rate_hz=3.9,
        channel_ids=tuple(ch.id for ch in small_montage.long_channels),
        hemo=np.zeros((2, 2, 10)),
    )
    with pytest.raises(ValueError, match="not both"):
        Dataset(montage=small_montage, recordings=(rec,), hemo=(hemo,))


# --- container round trip, property-based ---

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Hemo values: any finite float, with signed zeros and subnormals drawn often.
HEMO_VALUES = st.one_of(
    FINITE, st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072009e-308])
)
# Intensities: positive, from subnormal to near the largest float.
INTENSITY_VALUES = st.floats(min_value=5e-324, max_value=1e308, allow_subnormal=True)


def _montage(n_long: int, n_short: int) -> Montage:
    longs = [Channel("S1", f"D{i + 1}", 0.03, "long", "left") for i in range(n_long)]
    shorts = [Channel("S1", f"SD{i + 1}", 0.008, "short", "left") for i in range(n_short)]
    return Montage(
        sources=("S1",),
        detectors=tuple(ch.detector for ch in longs + shorts),
        channels=tuple(longs + shorts),
    )


@st.composite
def _containers(draw, kind: str):
    """A one- or two-participant dataset of ``kind`` with random channel
    counts, lengths (one-sample files included) and sample rate."""
    n_long = draw(st.integers(1, 4))
    montage = _montage(n_long, draw(st.integers(0, 2)) if kind == "intensity" else 0)
    # One rate for the whole dataset: save_dataset refuses mixed rates.
    fs = draw(st.sampled_from([3.9, 10.0, 7.8125])) if kind == "intensity" else 3.9
    participants = []
    for p in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 9))
        if kind == "intensity":
            shape = (2, len(montage.channels), n)
            participants.append(
                Recording(
                    participant_id=f"P{p}",
                    group="control",
                    sample_rate_hz=fs,
                    wavelengths_nm=(760.0, 850.0),
                    channel_ids=montage.channel_ids,
                    intensity=draw(hnp.arrays(np.float64, shape, elements=INTENSITY_VALUES)),
                )
            )
        else:
            shape = (2, n_long, n)
            participants.append(
                HemoSeries(
                    participant_id=f"P{p}",
                    group="patient",
                    sample_rate_hz=fs,
                    channel_ids=tuple(ch.id for ch in montage.long_channels),
                    hemo=draw(hnp.arrays(np.float64, shape, elements=HEMO_VALUES)),
                )
            )
    field = "recordings" if kind == "intensity" else "hemo"
    return Dataset(montage=montage, **{field: tuple(participants)})


def _arrays(dataset: Dataset) -> list[np.ndarray]:
    return [rec.intensity for rec in dataset.recordings] + [h.hemo for h in dataset.hemo]


@pytest.mark.parametrize("kind", ["intensity", "hemo"])
def test_container_round_trip_is_bitwise(kind):
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(_containers(kind))
    def round_trip(dataset):
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(dataset, Path(tmp) / "ds")
            loaded = load_dataset(Path(tmp) / "ds")
        assert loaded.kind == kind
        rates = [s.sample_rate_hz for s in dataset.recordings + dataset.hemo]
        assert [s.sample_rate_hz for s in loaded.recordings + loaded.hemo] == rates
        saved, got = _arrays(dataset), _arrays(loaded)
        assert len(got) == len(saved)
        for a, b in zip(saved, got):
            # Bit patterns, so that -0.0 and 0.0 differ.
            assert b.shape == a.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    round_trip()
