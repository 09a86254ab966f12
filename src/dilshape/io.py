"""File formats for matrices, parameter sets, sequences, and curves.

See FORMATS.md at the repository root for the authoritative description.
CSV carries a single matrix (or one realization per row); JSON carries the
structured objects, with only the fields readers read.  Readers raise
FormatError on malformed content and OSError on missing files, which the
command line maps to exit code 5.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .curves import ManifoldCurve, sequence_from_curve
from .corr import MAX_SIZE, RealizationSet
from .dilation import DilationSequence, SchurParams
from .errors import FormatError


def _as_float_array(data, what: str, ndim: int = 2) -> np.ndarray:
    """``data`` as a float array of ``ndim`` dims; a 3-d stack must hold square matrices."""
    try:
        a = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{what}: non-numeric or ragged content") from exc
    if a.ndim != ndim or (ndim == 3 and a.shape[1] != a.shape[2]):
        layout = "a 2-d table" if ndim == 2 else "a stack of square matrices"
        raise FormatError(f"{what}: expected {layout}, got shape {a.shape}")
    return a


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def _read_csv(path) -> list:
    try:
        with open(path, newline="") as handle:
            return [row for row in csv.reader(handle) if row]
    except (ValueError, csv.Error) as exc:  # bad UTF-8, malformed quoting
        raise FormatError(f"{path}: unreadable CSV ({exc})") from exc


def _write_csv(dest, rows) -> None:
    """Rows of strings as CSV, lines ending in LF, to a path or an open text stream."""
    if not hasattr(dest, "write"):
        with open(dest, "w", newline="") as handle:
            return _write_csv(handle, rows)
    csv.writer(dest, lineterminator="\n").writerows(rows)


def _numbers(table) -> list:
    return [[f"{v:.17g}" for v in row] for row in np.asarray(table, dtype=float)]


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload) + "\n")


def _format_of(path, fmt: str | None) -> str:
    if fmt:
        return fmt
    suffix = Path(path).suffix.lower()
    return "json" if suffix == ".json" else "csv"


def load_matrix(path, fmt: str | None = None) -> np.ndarray:
    if _format_of(path, fmt) == "json":
        data = _read_json(path)
        entries = data.get("entries", data) if isinstance(data, dict) else data
        m = _as_float_array(entries, str(path))
    else:
        m = _as_float_array(_read_csv(path), str(path))
    if m.shape[0] != m.shape[1]:
        raise FormatError(f"{path}: matrix is {m.shape[0]}x{m.shape[1]}, not square")
    return m


def save_matrix(path, matrix, fmt: str | None = None) -> None:
    m = np.asarray(matrix, dtype=float)
    if _format_of(path, fmt) == "json":
        _write_json(path, {"entries": m.tolist()})
    else:
        _write_csv(path, _numbers(m))


def load_realizations(path, fmt: str | None = None) -> RealizationSet:
    if _format_of(path, fmt) == "json":
        data = _read_json(path)
        rows = data.get("samples", data) if isinstance(data, dict) else data
    else:
        rows = _read_csv(path)
    return RealizationSet(samples=_as_float_array(rows, str(path)))


def save_realizations(path, data: RealizationSet, fmt: str | None = None) -> None:
    if _format_of(path, fmt) == "json":
        _write_json(path, {"samples": data.samples.tolist()})
    else:
        _write_csv(path, _numbers(data.samples))


def _indexed(path, data: dict, key: str, n: int, width: int) -> list:
    """Rows of ``data[key]`` as ((i, j), *values) with 0 <= i < j < n."""
    try:
        rows = [((int(i), int(j)), *map(float, rest)) for i, j, *rest in data.get(key, [])]
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: '{key}' entries are lists of {width} numbers") from exc
    for (i, j), *rest in rows:
        if len(rest) != width - 2 or not 0 <= i < j < n:
            raise FormatError(f"{path}: '{key}' entry ({i}, {j}) is not a {width}-item "
                              f"list inside the strict upper triangle of size {n}")
    return rows


def _check_params_n(path, n: int) -> None:
    if not 0 <= n <= MAX_SIZE:
        raise FormatError(f"{path}: parameter set size {n} outside [0, {MAX_SIZE}]")


def load_params(path) -> SchurParams:
    data = _read_json(path)
    if not isinstance(data, dict) or "n" not in data:
        raise FormatError(f"{path}: parameter files need an 'n' field")
    try:
        n = int(data["n"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: 'n' must be a non-negative integer") from exc
    _check_params_n(path, n)
    gamma = np.zeros((n, n))
    for pair, value in _indexed(path, data, "gamma", n, 3):
        gamma[pair] = value
    params = SchurParams.from_gamma(gamma)
    boundary, degenerate = params.boundary, params.degenerate.copy()
    for (pair,) in _indexed(path, data, "boundary", n, 2):
        if not boundary[pair]:
            raise FormatError(f"{path}: 'boundary' pair {pair} has magnitude below one")
    for (pair,) in _indexed(path, data, "degenerate", n, 2):
        degenerate[pair] = True
    degenerate.setflags(write=False)
    return SchurParams(gamma=params.gamma, degenerate=degenerate)


def save_params(path, params: SchurParams) -> None:
    _check_params_n(path, params.n)
    g = params.gamma
    kept = np.nonzero(np.triu((g != 0.0) | params.degenerate, 1))
    triples = [[int(i), int(j), float(g[i, j])] for i, j in zip(*kept)]
    payload: dict = {"n": params.n, "gamma": triples}
    flagged = [[int(i), int(j)] for i, j in zip(*np.nonzero(params.degenerate))]
    if flagged:
        payload["degenerate"] = flagged
    boundary = [[int(i), int(j)] for i, j in zip(*np.nonzero(params.boundary))]
    if boundary:
        payload["boundary"] = boundary
    _write_json(path, payload)


def load_sequence(path) -> DilationSequence:
    """Rotation sequence from a sequence file, a curve file or a CSV directory."""
    p = Path(path)
    if p.is_dir():
        files = sorted(q for q in p.iterdir() if q.suffix.lower() == ".csv")
        if not files:
            raise FormatError(f"{path}: directory holds no CSV matrices")
        mats = _as_float_array([load_matrix(f) for f in files], str(path), 3)
    else:
        data = _read_json(path)
        if isinstance(data, dict) and "points" in data:
            return sequence_from_curve(_curve_from(path, data))
        if not isinstance(data, dict) or "matrices" not in data:
            raise FormatError(f"{path}: sequence files need a 'matrices' "
                              "or a curve's 'points' field")
        mats = _as_float_array(data["matrices"], str(path), 3)
    return DilationSequence(matrices=mats)


def save_sequence(path, seq: DilationSequence) -> None:
    _write_json(path, {"matrices": seq.matrices.tolist()})


def _curve_from(path, data) -> ManifoldCurve:
    if not isinstance(data, dict) or "points" not in data:
        raise FormatError(f"{path}: curve files need a 'points' field")
    pts = _as_float_array(data["points"], str(path), 3)
    base = data.get("base")
    if base is not None:
        base = _as_float_array(base, f"{path}: base")
    return ManifoldCurve(points=pts, base=base)


def load_curve(path) -> ManifoldCurve:
    return _curve_from(path, _read_json(path))


def save_curve(path, curve: ManifoldCurve) -> None:
    payload: dict = {"points": curve.points.tolist()}
    if curve.base is not None:
        payload["base"] = curve.base.tolist()
    _write_json(path, payload)


def save_distance_matrix(path, names: list[str], matrix: np.ndarray) -> None:
    """Labelled distance table to a file ``path`` or an open text stream such as stdout."""
    _write_csv(path, [["", *names]]
               + [[name, *row] for name, row in zip(names, _numbers(matrix))])
