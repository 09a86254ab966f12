"""File formats for matrices, parameter sets, sequences, and curves.

See FORMATS.md at the repository root for the authoritative description.
CSV carries a single matrix (or one realization per row); JSON carries the
structured objects.  Readers raise FormatError on malformed content and
OSError on missing files, which the command line maps to exit code 5.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .curves import ManifoldCurve
from .corr import RealizationSet
from .dilation import DilationSequence, SchurParams
from .errors import FormatError


def _as_float_matrix(rows, what: str) -> np.ndarray:
    try:
        m = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what}: non-numeric content") from exc
    if m.ndim != 2:
        raise FormatError(f"{what}: expected a 2-d table, got shape {m.shape}")
    return m


def _read_json(path) -> dict:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    return data


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def _format_of(path, fmt: str | None) -> str:
    if fmt:
        return fmt
    suffix = Path(path).suffix.lower()
    return "json" if suffix == ".json" else "csv"


def load_matrix(path, fmt: str | None = None) -> np.ndarray:
    if _format_of(path, fmt) == "json":
        data = _read_json(path)
        entries = data.get("entries", data) if isinstance(data, dict) else data
        m = _as_float_matrix(entries, str(path))
    else:
        with open(path, newline="") as handle:
            rows = [row for row in csv.reader(handle) if row]
        m = _as_float_matrix(rows, str(path))
    if m.shape[0] != m.shape[1]:
        raise FormatError(f"{path}: matrix is {m.shape[0]}x{m.shape[1]}, not square")
    return m


def save_matrix(path, matrix, fmt: str | None = None) -> None:
    m = np.asarray(matrix, dtype=float)
    if _format_of(path, fmt) == "json":
        _write_json(path, {"n": m.shape[0], "entries": m.tolist()})
    else:
        np.savetxt(path, m, delimiter=",", fmt="%.17g")


def load_realizations(path, fmt: str | None = None) -> RealizationSet:
    if _format_of(path, fmt) == "json":
        data = _read_json(path)
        rows = data.get("samples", data) if isinstance(data, dict) else data
    else:
        with open(path, newline="") as handle:
            rows = [row for row in csv.reader(handle) if row]
    return RealizationSet(samples=_as_float_matrix(rows, str(path)))


def save_realizations(path, data: RealizationSet, fmt: str | None = None) -> None:
    if _format_of(path, fmt) == "json":
        _write_json(path, {"count": data.count, "length": data.length,
                           "samples": data.samples.tolist()})
    else:
        np.savetxt(path, data.samples, delimiter=",", fmt="%.17g")


def _indexed(path, data: dict, key: str, n: int, width: int) -> list:
    """Rows of ``data[key]`` as ((i, j), *values) with 0 <= i < j < n."""
    try:
        rows = [((int(i), int(j)), *map(float, rest)) for i, j, *rest in data.get(key, [])]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: '{key}' entries are lists of {width} numbers") from exc
    for (i, j), *rest in rows:
        if len(rest) != width - 2 or not 0 <= i < j < n:
            raise FormatError(f"{path}: '{key}' entry ({i}, {j}) is not a {width}-item "
                              f"list inside the strict upper triangle of size {n}")
    return rows


def load_params(path) -> SchurParams:
    data = _read_json(path)
    if not isinstance(data, dict) or "n" not in data:
        raise FormatError(f"{path}: parameter files need an 'n' field")
    try:
        n = int(data["n"])
        gamma = np.zeros((n, n))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: 'n' must be a non-negative integer") from exc
    for pair, value in _indexed(path, data, "gamma", n, 3):
        gamma[pair] = value
    params = SchurParams.from_gamma(gamma)
    flags = {"boundary": params.boundary.copy(), "degenerate": params.degenerate.copy()}
    for key, mask in flags.items():
        for (pair,) in _indexed(path, data, key, n, 2):
            mask[pair] = True
        mask.setflags(write=False)
    return SchurParams(gamma=params.gamma, **flags)


def save_params(path, params: SchurParams) -> None:
    triples = []
    n = params.n
    for i in range(n):
        for j in range(i + 1, n):
            if params.gamma[i, j] != 0.0 or params.degenerate[i, j]:
                triples.append([i, j, float(params.gamma[i, j])])
    payload: dict = {"n": n, "gamma": triples}
    flagged = [[int(i), int(j)] for i, j in zip(*np.nonzero(params.degenerate))]
    if flagged:
        payload["degenerate"] = flagged
    boundary = [[int(i), int(j)] for i, j in zip(*np.nonzero(params.boundary))]
    if boundary:
        payload["boundary"] = boundary
    _write_json(path, payload)


def load_sequence(path) -> DilationSequence:
    p = Path(path)
    if p.is_dir():
        files = sorted(q for q in p.iterdir() if q.suffix.lower() == ".csv")
        if not files:
            raise FormatError(f"{path}: directory holds no CSV matrices")
        mats = np.stack([load_matrix(f) for f in files])
    else:
        data = _read_json(path)
        if not isinstance(data, dict) or "matrices" not in data:
            raise FormatError(f"{path}: sequence files need a 'matrices' field")
        try:
            mats = np.asarray(data["matrices"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: non-numeric or ragged matrices") from exc
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise FormatError(f"{path}: sequence entries must be square matrices")
    return DilationSequence(matrices=mats, dim=mats.shape[1])


def save_sequence(path, seq: DilationSequence) -> None:
    _write_json(path, {"dim": seq.dim, "matrices": seq.matrices.tolist()})


def load_curve(path) -> ManifoldCurve:
    data = _read_json(path)
    if not isinstance(data, dict) or "points" not in data:
        raise FormatError(f"{path}: curve files need a 'points' field")
    pts = np.asarray(data["points"], dtype=float)
    if pts.ndim != 3 or pts.shape[1] != pts.shape[2]:
        raise FormatError(f"{path}: curve points must be square matrices")
    base = data.get("base")
    if base is not None:
        base = np.asarray(base, dtype=float)
    return ManifoldCurve(points=pts, closed=bool(data.get("closed", False)), base=base)


def save_curve(path, curve: ManifoldCurve) -> None:
    payload: dict = {
        "dim": curve.dim,
        "closed": curve.closed,
        "points": curve.points.tolist(),
    }
    if curve.base is not None:
        payload["base"] = curve.base.tolist()
    _write_json(path, payload)


def save_distance_matrix(path, names: list[str], matrix: np.ndarray) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([""] + list(names))
        for name, row in zip(names, np.asarray(matrix)):
            writer.writerow([name] + [f"{v:.17g}" for v in row])
