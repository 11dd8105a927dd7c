"""Core data types and the on-disk dataset container.

Every record holds a wavelength or chromophore pair as the first axis of
one array: a recording's intensities are (2, channels, samples) in
``wavelengths_nm`` order, a hemo series is (2, long channels, samples) and
an epoch set (trials, 2, channels, window), both in ``CHROMOPHORES`` order.
Each array is C-contiguous and read-only, however it was made.

A dataset is a directory holding one JSON manifest plus one CSV per
participant per wavelength (raw intensity datasets) or per chromophore
(preprocessed datasets). Numbers are serialized as decimal with 17
significant digits so save/load round-trips are bit-exact. All types are
immutable after construction.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "CHROMOPHORES",
    "DatasetFormatError",
    "Channel",
    "Montage",
    "Annotation",
    "Recording",
    "ProvenanceStep",
    "HemoSeries",
    "EpochSet",
    "Dataset",
    "load_dataset",
    "save_dataset",
]

SCHEMA_VERSION = 1
# The two groups; a group's class label is its index here.
GROUPS = ("control", "patient")
# The chromophore pair, in the order of a hemo series' or epoch set's first
# pair axis: oxygenated, then deoxygenated haemoglobin.
CHROMOPHORES = ("hbo", "hbr")


class DatasetFormatError(Exception):
    """Raised when a dataset directory violates the container schema."""


def _fmt(x: float) -> str:
    """Decimal text with 17 significant digits (binary round-trip safe)."""
    return format(float(x), ".17g")


def _frozen(a, dtype=float) -> np.ndarray:
    """``a`` as a C-contiguous, read-only array: a reduction along its last
    axis then sums in the same order wherever the array came from."""
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _values_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_values_equal(a[k], b[k]) for k in a)
    return a == b


def _fields_equal(self, other) -> bool:
    """Field-wise equality: arrays by value, dicts key by key, the rest by ==."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(
        _values_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
    )


@dataclass(frozen=True)
class Channel:
    source: str
    detector: str
    distance_m: float
    kind: str  # "long" | "short"
    hemisphere: str  # "left" | "right"

    def __post_init__(self):
        if self.kind not in ("long", "short"):
            raise ValueError(f"channel kind must be long or short, got {self.kind!r}")
        if self.hemisphere not in ("left", "right"):
            raise ValueError(f"hemisphere must be left or right, got {self.hemisphere!r}")
        if self.distance_m <= 0:
            raise ValueError(f"channel distance must be positive, got {self.distance_m}")

    @property
    def id(self) -> str:
        return f"{self.source}-{self.detector}"


@dataclass(frozen=True, eq=False)
class Montage:
    """Optode layout: sources, detectors, channels, and named ROI groups."""

    sources: tuple[str, ...]
    detectors: tuple[str, ...]
    channels: tuple[Channel, ...]
    roi_map: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        src = set(self.sources)
        det = set(self.detectors)
        ids = [ch.id for ch in self.channels]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate channel ids in montage")
        for ch in self.channels:
            if ch.source not in src:
                raise ValueError(f"channel {ch.id} references undeclared source {ch.source}")
            if ch.detector not in det:
                raise ValueError(f"channel {ch.id} references undeclared detector {ch.detector}")
        longs = [ch.distance_m for ch in self.channels if ch.kind == "long"]
        shorts = [ch.distance_m for ch in self.channels if ch.kind == "short"]
        if longs and shorts and min(longs) <= max(shorts):
            raise ValueError(
                "every long-channel distance must exceed every short-channel distance "
                f"(min long {min(longs)} <= max short {max(shorts)})"
            )
        id_set = set(ids)
        for roi, members in self.roi_map.items():
            if len(set(members)) != len(members):
                raise ValueError(f"ROI {roi!r} lists a channel more than once")
            for m in members:
                if m not in id_set:
                    raise ValueError(f"ROI {roi!r} references unknown channel {m}")

    @property
    def channel_ids(self) -> tuple[str, ...]:
        return tuple(ch.id for ch in self.channels)

    @property
    def long_channels(self) -> tuple[Channel, ...]:
        return tuple(ch for ch in self.channels if ch.kind == "long")

    @property
    def short_channels(self) -> tuple[Channel, ...]:
        return tuple(ch for ch in self.channels if ch.kind == "short")

    def channel(self, channel_id: str) -> Channel:
        for ch in self.channels:
            if ch.id == channel_id:
                return ch
        raise KeyError(f"channel {channel_id} not in montage")

    __eq__ = _fields_equal


@dataclass(frozen=True)
class Annotation:
    onset_s: float
    duration_s: float
    label: str

    def __post_init__(self):
        if self.onset_s < 0 or self.duration_s <= 0:
            raise ValueError(
                f"annotation needs onset >= 0 and duration > 0, got "
                f"({self.onset_s}, {self.duration_s})"
            )


def _check_series(series, name: str, pair: np.ndarray) -> None:
    """The rules a recording and a hemo series share: a nonempty string id,
    a known group, a positive finite sample rate, a (2, channels, samples)
    ``pair`` array, and annotations inside the series."""
    if not isinstance(series.participant_id, str) or not series.participant_id:
        raise ValueError(f"participant id must be a nonempty string, got {series.participant_id!r}")
    if series.group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}, got {series.group!r}")
    if not 0 < series.sample_rate_hz < np.inf:
        raise ValueError(f"sample rate must be positive and finite, got {series.sample_rate_hz}")
    n_channels = len(series.channel_ids)
    if pair.shape[:2] != (2, n_channels) or pair.ndim != 3:
        raise ValueError(
            f"{name} must be (2, n_channels, n_samples), got {pair.shape} "
            f"for {n_channels} channels"
        )
    duration_s = pair.shape[2] / series.sample_rate_hz
    ordered = sorted(series.annotations, key=lambda a: a.onset_s)
    for a in ordered:
        if a.onset_s + a.duration_s > duration_s + 1e-9:
            raise ValueError(
                f"annotation ({a.onset_s} s + {a.duration_s} s, {a.label!r}) "
                f"extends past the recording end at {duration_s} s"
            )
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.onset_s < prev.onset_s + prev.duration_s - 1e-9:
            raise ValueError(
                f"annotations overlap: {prev.label!r} at {prev.onset_s} s and "
                f"{nxt.label!r} at {nxt.onset_s} s"
            )


@dataclass(frozen=True, eq=False)
class Recording:
    """Raw per-channel optical intensities at two wavelengths."""

    participant_id: str
    group: str
    sample_rate_hz: float
    wavelengths_nm: tuple[float, float]
    channel_ids: tuple[str, ...]
    intensity: np.ndarray  # (2, n_channels, n_samples), in wavelengths_nm order
    annotations: tuple[Annotation, ...] = ()

    def __post_init__(self):
        wavelengths = self.wavelengths_nm
        if len(wavelengths) != 2 or wavelengths[0] == wavelengths[1]:
            raise ValueError(f"a recording needs two distinct wavelengths, got {wavelengths}")
        object.__setattr__(self, "intensity", _frozen(self.intensity))
        _check_series(self, "intensity", self.intensity)
        if np.any(self.intensity <= 0) or not np.all(np.isfinite(self.intensity)):
            raise ValueError(
                f"participant {self.participant_id}: intensities must be "
                "finite and strictly positive"
            )

    @property
    def n_samples(self) -> int:
        return self.intensity.shape[2]

    __eq__ = _fields_equal


@dataclass(frozen=True)
class ProvenanceStep:
    name: str
    params: tuple[tuple[str, object], ...]

    @classmethod
    def make(cls, name: str, **params) -> "ProvenanceStep":
        return cls(name=name, params=tuple(sorted(params.items())))


@dataclass(frozen=True, eq=False)
class HemoSeries:
    """Per-long-channel hemoglobin concentration changes after preprocessing."""

    participant_id: str
    group: str
    sample_rate_hz: float
    channel_ids: tuple[str, ...]
    hemo: np.ndarray  # (2, n_channels, n_samples), CHROMOPHORES order, mol/L change
    annotations: tuple[Annotation, ...] = ()
    provenance: tuple[ProvenanceStep, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "hemo", _frozen(self.hemo))
        _check_series(self, "hemo", self.hemo)

    @property
    def n_samples(self) -> int:
        return self.hemo.shape[2]

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class EpochSet:
    """Task-aligned fixed-length windows of many trials.

    ``hemo`` is a C-contiguous, read-only (trials, 2, channels, window)
    array, its pair axis in ``CHROMOPHORES`` order. ``participants`` holds
    each participant's (id, group) once, with or without trials. Trial ``i``
    belongs to ``participants[participant_index[i]]`` (a read-only integer
    array) and was cut from a ``tasks[i]`` block.
    """

    sample_rate_hz: float
    channel_ids: tuple[str, ...]
    hemo: np.ndarray
    participants: tuple[tuple[str, str], ...]
    participant_index: np.ndarray
    tasks: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "hemo", _frozen(self.hemo))
        ids = [pid for pid, _ in self.participants]
        if len(set(ids)) != len(ids):
            raise ValueError(f"the participant table lists an id more than once: {ids}")
        if not {group for _, group in self.participants} <= set(GROUPS):
            raise ValueError(f"participant groups must be among {GROUPS}: {self.participants}")
        given, index = self.participant_index, _frozen(self.participant_index, np.intp)
        object.__setattr__(self, "participant_index", index)
        shape = (len(index), 2, len(self.channel_ids))
        if index.ndim != 1 or self.hemo.ndim != 4 or self.hemo.shape[:3] != shape:
            raise ValueError(
                f"epoch array {self.hemo.shape} must be (trials, 2, channels, window) "
                f"with (trials, 2, channels) = {shape}"
            )
        if len(self.tasks) != shape[0]:
            raise ValueError("every trial needs one participant and task")
        in_range = not index.size or 0 <= index.min() <= index.max() < len(ids)
        if not (in_range and np.array_equal(index, given)):
            raise ValueError(f"participant_index must hold integers in [0, {len(ids)})")

    @property
    def window_samples(self) -> int:
        return self.hemo.shape[3]

    @property
    def participant_ids(self) -> np.ndarray:
        """Each trial's participant id, read from the table."""
        return np.array([pid for pid, _ in self.participants], dtype=str)[self.participant_index]

    def rows(self, task: str | None = None, group: str | None = None) -> np.ndarray:
        """Indices of the trials of ``task`` in ``group`` (None matches all).

        ``hemo[rows]`` copies the windows: reduce first where a caller can.
        """
        keep = np.ones(len(self.tasks), dtype=bool)
        if task is not None:
            keep &= np.array(self.tasks, dtype=str) == task
        if group is not None:
            in_group = np.array([g == group for _, g in self.participants], dtype=bool)
            keep &= in_group[self.participant_index]
        return np.flatnonzero(keep)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A montage plus per-participant recordings or hemoglobin series."""

    montage: Montage
    recordings: tuple[Recording, ...] = ()
    hemo: tuple[HemoSeries, ...] = ()
    creator: str = "nirscope"
    seed: int | None = None

    def __post_init__(self):
        if self.recordings and self.hemo:
            raise ValueError("dataset holds either recordings or hemo series, not both")
        ids = [r.participant_id for r in self.recordings] + [
            h.participant_id for h in self.hemo
        ]
        if len(set(ids)) != len(ids):
            raise ValueError("participant ids must be unique")
        long_ids = tuple(ch.id for ch in self.montage.long_channels)
        for r in self.recordings:
            if tuple(r.channel_ids) != self.montage.channel_ids:
                raise ValueError(
                    f"participant {r.participant_id}: channels do not match montage"
                )
        for h in self.hemo:
            if tuple(h.channel_ids) != long_ids:
                raise ValueError(
                    f"participant {h.participant_id}: hemo series must cover the "
                    "montage long channels in montage order"
                )

    @property
    def kind(self) -> str:
        return "hemo" if self.hemo else "intensity"

    __eq__ = _fields_equal


# ---------------------------------------------------------------------------
# Serialization


def _montage_to_json(m: Montage) -> dict:
    return {
        "sources": list(m.sources),
        "detectors": list(m.detectors),
        "channels": [
            [ch.source, ch.detector, _fmt(ch.distance_m), ch.kind, ch.hemisphere]
            for ch in m.channels
        ],
        "roi_map": {k: list(v) for k, v in m.roi_map.items()},
    }


def _montage_from_json(obj: Mapping, path: Path) -> Montage:
    try:
        channels = tuple(
            Channel(src, det, float(dist), kind, hemi)
            for src, det, dist, kind, hemi in obj["channels"]
        )
        return Montage(
            sources=tuple(obj["sources"]),
            detectors=tuple(obj["detectors"]),
            channels=channels,
            roi_map={k: tuple(v) for k, v in obj.get("roi_map", {}).items()},
        )
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise DatasetFormatError(f"{path}: bad montage block: {e}") from e


def _participant_files(
    kind: str, montage: Montage, wavelengths: Sequence[float] | None
) -> tuple[tuple[str, str, tuple[str, ...], bool], ...]:
    """The files of one participant of a ``kind`` dataset, in manifest order:
    (key under "files", file name after ``<participant id>_``, channels,
    values must be positive)."""
    if kind == "intensity":
        return tuple(
            (_fmt(wl), f"wl{_fmt(wl)}.csv", montage.channel_ids, True) for wl in wavelengths
        )
    long_ids = tuple(ch.id for ch in montage.long_channels)
    return tuple((chrom, f"{chrom}.csv", long_ids, False) for chrom in CHROMOPHORES)


def _write_series_csv(path: Path, channel_ids: Sequence[str], rows: np.ndarray, fs: float):
    # "%.17g" prints a float exactly as _fmt does; one row template formats
    # the time and every channel of a sample in one pass.
    row = "%.17g," + ",".join(["%.17g"] * len(channel_ids))
    table = np.vstack([np.arange(rows.shape[1]) / fs, rows]).T.tolist()
    lines = ["t_s," + ",".join(channel_ids)] + [row % tuple(r) for r in table]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _read_series_csv(
    path: Path, expect_channels: Sequence[str], positive: bool
) -> np.ndarray:
    if not path.is_file():
        raise DatasetFormatError(f"missing participant file: {path}")
    raw = path.read_bytes()
    if not raw:
        raise DatasetFormatError(f"{path}:1: empty channel file")
    n_cols = len(expect_channels) + 1
    end = raw.find(b"\n")
    header = ",".join(["t_s", *expect_channels]).encode("utf-8")
    if 0 <= end < len(raw) - 1 and raw[:end] == header and raw.isascii():
        # The body in one loadtxt call, read from the file's bytes. A file it
        # does not take line for line, or with a value the checks refuse,
        # goes to the line parser below, which names the offending line.
        try:
            data = np.loadtxt(
                io.BytesIO(raw), skiprows=1, delimiter=",", dtype=float, ndmin=2,
                comments=None,
            )
        except ValueError:
            pass
        else:
            n_rows = raw.count(b"\n") - raw.endswith(b"\n")
            if (
                data.shape == (n_rows, n_cols)
                and np.isfinite(data).all()
                and not (positive and np.any(data[:, 1:] <= 0))
            ):
                # A fresh C-ordered copy, transposed: the same (channels,
                # samples) layout and strides as the line parser gives.
                return data[:, 1:].copy().T
    lines = raw.decode("utf-8").splitlines()
    header = lines[0].split(",")
    if header[0] != "t_s" or tuple(header[1:]) != tuple(expect_channels):
        raise DatasetFormatError(
            f"{path}:1: header does not match the manifest channel list"
        )
    return _parse_series_lines(path, lines, n_cols, positive)


def _parse_series_lines(
    path: Path, lines: Sequence[str], n_cols: int, positive: bool
) -> np.ndarray:
    # Line-by-line parse of a body np.loadtxt rejected (or that has no rows),
    # so that each DatasetFormatError names its line.
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
        if not (np.isfinite(t) and np.isfinite(data[lineno - 2]).all()):
            raise DatasetFormatError(f"{path}:{lineno}: non-finite value")
        if positive and np.any(data[lineno - 2] <= 0):
            raise DatasetFormatError(
                f"{path}:{lineno}: non-positive intensity value"
            )
    return data.T  # (n_channels, n_samples)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset directory: manifest.json plus per-participant CSVs.

    Validation errors refuse the write before any file is touched; output is
    byte-deterministic for a given dataset.
    """
    series = dataset.recordings or dataset.hemo
    if not series:
        # load_dataset refuses a container that lists no participants.
        raise ValueError("the dataset has no participants: a dataset directory holds at least one")
    first = series[0]
    for s in series[1:]:
        # The manifest holds one sample rate and one wavelength pair, which
        # every file is read back at.
        if s.sample_rate_hz != first.sample_rate_hz:
            raise ValueError(
                f"participant {s.participant_id} is sampled at {s.sample_rate_hz} Hz, "
                f"participant {first.participant_id} at {first.sample_rate_hz} Hz: "
                "a dataset directory holds one sample rate"
            )
        if dataset.recordings and s.wavelengths_nm != first.wavelengths_nm:
            raise ValueError(
                f"participant {s.participant_id} is recorded at {s.wavelengths_nm} nm, "
                f"participant {first.participant_id} at {first.wavelengths_nm} nm: "
                "a dataset directory holds one wavelength pair"
            )
    wavelengths = first.wavelengths_nm if dataset.recordings else None
    table = _participant_files(dataset.kind, dataset.montage, wavelengths)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    participants = []
    files: list[tuple[Path, Sequence[str], np.ndarray]] = []
    for s in series:
        refs = {}
        pair = s.intensity if dataset.recordings else s.hemo
        for (key, suffix, channel_ids, _), arr in zip(table, pair):
            refs[key] = f"{s.participant_id}_{suffix}"
            files.append((root / refs[key], channel_ids, arr))
        entry = {
            "id": s.participant_id,
            "group": s.group,
            "files": refs,
            "annotations": [
                [_fmt(a.onset_s), _fmt(a.duration_s), a.label] for a in s.annotations
            ],
        }
        if dataset.hemo:
            entry["provenance"] = [[step.name, dict(step.params)] for step in s.provenance]
        participants.append(entry)
    fs = first.sample_rate_hz
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "creator": dataset.creator,
        "seed": dataset.seed,
        "data_kind": dataset.kind,
        "sample_rate_hz": _fmt(fs),
        "wavelengths_nm": [_fmt(w) for w in wavelengths] if dataset.recordings else None,
        "montage": _montage_to_json(dataset.montage),
        "participants": participants,
    }
    (root / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    for fpath, ids, arr in files:
        _write_series_csv(fpath, ids, arr, fs)


def load_dataset(path: str | Path) -> Dataset:
    """Load a dataset directory written by save_dataset, validating invariants."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise DatasetFormatError(f"missing manifest file: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DatasetFormatError(f"{manifest_path}:{e.lineno}: {e.msg}") from e
    if not isinstance(manifest, dict):
        raise DatasetFormatError(f"{manifest_path}: the manifest must be a JSON object")
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DatasetFormatError(
            f"{manifest_path}: schema-version mismatch: file has {version!r}, "
            f"reader supports {SCHEMA_VERSION}"
        )
    montage = _montage_from_json(manifest.get("montage", {}), manifest_path)
    kind = manifest.get("data_kind", "intensity")
    if kind not in ("intensity", "hemo"):
        raise DatasetFormatError(
            f"{manifest_path}: data_kind must be 'intensity' or 'hemo', got {kind!r}"
        )
    sample_rate = manifest.get("sample_rate_hz")
    wavelengths = manifest.get("wavelengths_nm")
    try:
        sample_rate = None if sample_rate is None else float(sample_rate)
    except (TypeError, ValueError):
        raise DatasetFormatError(
            f"{manifest_path}: sample_rate_hz must be a number, got {sample_rate!r}"
        ) from None
    try:
        wavelengths = None if wavelengths is None else tuple(float(w) for w in wavelengths)
    except (TypeError, ValueError):
        raise DatasetFormatError(
            f"{manifest_path}: wavelengths_nm must be a list of numbers, got {wavelengths!r}"
        ) from None
    participants = manifest.get("participants", [])
    if not isinstance(participants, list):
        raise DatasetFormatError(
            f"{manifest_path}: participants must be a list, got {participants!r}"
        )
    if not participants:
        # Nothing could be preprocessed, epoched or trained from it.
        raise DatasetFormatError(f"{manifest_path}: lists no participants")
    needed = ("sample_rate_hz", "wavelengths_nm") if kind == "intensity" else ("sample_rate_hz",)
    if any(manifest.get(key) is None for key in needed):
        raise DatasetFormatError(f"{manifest_path}: {kind} datasets need {' and '.join(needed)}")

    table = _participant_files(kind, montage, wavelengths)
    recordings: list[Recording] = []
    hemo: list[HemoSeries] = []
    try:
        for p in participants:
            common = dict(
                participant_id=p["id"],
                group=p["group"],
                sample_rate_hz=sample_rate,
                channel_ids=table[0][2],  # every file of a kind holds the same channels
                annotations=tuple(
                    Annotation(float(o), float(d), str(lbl))
                    for o, d, lbl in p.get("annotations", [])
                ),
            )
            pair = [
                _read_series_csv(root / p["files"][key], channel_ids, positive)
                for key, _, channel_ids, positive in table
            ]
            if kind == "intensity":
                recordings.append(Recording(wavelengths_nm=wavelengths, intensity=pair, **common))
            else:
                provenance = tuple(
                    ProvenanceStep.make(name, **params) for name, params in p.get("provenance", [])
                )
                hemo.append(HemoSeries(hemo=pair, provenance=provenance, **common))
    except KeyError as e:
        raise DatasetFormatError(f"{manifest_path}: missing manifest key {e}") from e
    except (TypeError, AttributeError) as e:
        # A participant entry, its files or a provenance step of the wrong JSON type.
        raise DatasetFormatError(f"{manifest_path}: malformed participant entry: {e}") from e
    except ValueError as e:
        raise DatasetFormatError(f"{manifest_path}: {e}") from e

    try:
        return Dataset(
            montage=montage,
            recordings=tuple(recordings),
            hemo=tuple(hemo),
            creator=manifest.get("creator", "unknown"),
            seed=manifest.get("seed"),
        )
    except ValueError as e:
        raise DatasetFormatError(f"{manifest_path}: {e}") from e
