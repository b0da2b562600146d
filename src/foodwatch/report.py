"""CSV artifacts and the human-readable run report.

Every table the pipeline emits is a plain CSV; the text report is rendered
from those CSVs (not from in-memory state), so the two can never disagree.
Floats are written with ``repr`` and parse back to the exact same values.
``read_csv`` and ``write_csv`` are the package's one CSV codec: the dataset
streams and every pipeline table are read and written through them, bar a
visit log whose rows need no quoting, which ``logdata`` splits and spells in
bulk to the same bytes, and each table's header is declared once, next to
its file name.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import closing
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DataError, DataFormatError

T = TypeVar("T")

METRICS_CSV = "wsm_metrics.csv"
METRICS_HEADER = ["metric", "value"]
DAILY_LISTS_CSV = "daily_lists.csv"
DAILY_LIST_HEADER = [
    "date",
    "restaurant_id",
    "city",
    "risk_level",
    "visitors",
    "affected",
    "proportion",
    "signal",
]
RELEASED_CSV = "released_aggregates.csv"
RELEASED_HEADER = DAILY_LIST_HEADER + ["suppressed"]
PRECISION_CSV = "precision.csv"
PRECISION_HEADER = [
    "comparison",
    "stratum",
    "n_finder",
    "unsafe_finder",
    "pct_finder",
    "n_other",
    "unsafe_other",
    "pct_other",
    "odds_ratio",
    "ci_low",
    "ci_high",
    "p_value",
    "converged",
    "note",
]
RISK_DISTRIBUTION_CSV = "risk_distribution.csv"
RISK_DISTRIBUTION_HEADER = ["risk_level", "finder_n", "finder_pct", "baseline_n", "baseline_pct", "chi2_p"]
VIOLATIONS_CSV = "violations.csv"
VIOLATIONS_HEADER = ["severity", "finder_adjusted_mean", "baseline_adjusted_mean", "p_value"]
ATTRIBUTION_CSV = "attribution.csv"
ATTRIBUTION_HEADER = ["rank", "fraction"]


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """A header line and one line per row; ``None`` is written as an empty field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_JSON_BLOCK = 1024  # list items per C-encoded block


def json_int(value, name: str) -> int:
    """``value``, a JSON integer; any other JSON value is a ValueError. A
    float such as 1.7 or 0.0 is refused, not truncated, and so is a bool,
    which is an int to ``isinstance``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as ``json.dump`` would, byte for byte, but from the C
    encoder: ``json.dump`` encodes in pure Python, and ``json.dumps`` would
    hold the whole document at once (5 MB for a model), so each top-level
    list is encoded a block of items at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(payload.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            if isinstance(value, list):
                fh.write("[")
                for at in range(0, len(value), _JSON_BLOCK):
                    fh.write(f"{', ' if at else ''}{json.dumps(value[at : at + _JSON_BLOCK])[1:-1]}")
                fh.write("]")
            else:
                fh.write(json.dumps(value))
        fh.write("}")


def utf8_lines(path: Path, newline: str | None = None) -> Iterator[str]:
    """The lines of a UTF-8 text file, as ``open(path, encoding="utf-8",
    newline=newline)`` yields them; a missing file raises at once. A byte
    that does not decode is a data error that names its line, raised only
    after every line before that one: the file object decodes a block at a
    time and fails the whole block, so the rest of the lines ahead of the
    bad byte are yielded from the file's bytes."""
    return _utf8_lines(path, open(path, "r", encoding="utf-8", newline=newline), newline)


def _utf8_lines(path: Path, fh: Iterable[str], newline: str | None) -> Iterator[str]:
    yielded = 0
    with fh:
        try:
            for yielded, line in enumerate(fh, start=1):
                yield line
            return
        except UnicodeDecodeError:
            pass
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # whole lines end at \n, \r or \r\n, as text files split them
        lines = io.StringIO(data[: exc.start].decode("utf-8"), newline=newline).readlines()
        if lines and not lines[-1].endswith(("\n", "\r")):
            lines.pop()  # the start of the bad byte's own line
        yield from lines[yielded:]
        raise DataFormatError(f"{path}:{len(lines) + 1}: not UTF-8 ({exc.reason}, byte {data[exc.start]:#04x})") from None
    raise DataFormatError(f"{path}: not UTF-8")  # the file changed since it failed to decode


def read_csv(
    path: Path,
    header: Sequence[str] | None = None,
    parse: Callable[[list[str]], T] = list,
) -> tuple[list[str], list[T]]:
    """The header line of a CSV and ``parse(row)`` of each data row, read one
    row at a time.

    Blank lines are skipped. When ``header`` is given the file's header line
    must equal it. A missing file, a header mismatch, a row whose width
    differs from the header's, a row the csv module refuses (a field over
    ``csv.field_size_limit()``, say), a byte that is not UTF-8 and a
    ``ValueError`` from ``parse`` are data errors; all but the first name the
    file and line.
    """
    try:
        lines = utf8_lines(path, newline="")
    except FileNotFoundError:
        raise DataError(f"missing file {path}") from None
    with closing(lines):
        reader = csv.reader(lines)
        try:
            found = next(reader, None)
            if header is not None and found != list(header):
                missing = next((name for name in header if name not in (found or ())), None)
                problem = f"missing column {missing}" if missing else f"got {','.join(found)}"
                raise DataFormatError(f"{path}:1: {problem}; expected header {','.join(header)}")
            found = found or []
            width = len(found)
            records = []
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != width:
                        raise ValueError(f"expected {width} fields, got {len(row)}")
                    records.append(parse(row))
                except ValueError as exc:
                    raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from exc
        except csv.Error as exc:
            raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
    return found, records


def format_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(h) for h in header]] + [[("" if v is None else str(v)) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(raw: str, digits: int = 3) -> str:
    if raw == "":
        return "-"
    try:
        return f"{float(raw):.{digits}f}"
    except ValueError:
        return raw


def _section(title: str, body: str) -> str:
    return f"{title}\n{'=' * len(title)}\n{body}\n"


def render_report(artifact_dir: Path) -> str:
    """Assemble the text report from the evaluation CSVs."""
    artifact_dir = Path(artifact_dir)
    parts: list[str] = []

    _, rows = read_csv(artifact_dir / RISK_DISTRIBUTION_CSV, RISK_DISTRIBUTION_HEADER)
    display = [
        [level, finder_n, _fmt(finder_pct, 1) + "%", baseline_n, _fmt(baseline_pct, 1) + "%", _fmt(chi2_p, 4)]
        for level, finder_n, finder_pct, baseline_n, baseline_pct, chi2_p in rows
    ]
    parts.append(
        _section(
            "Risk-level distribution of inspections",
            format_table(RISK_DISTRIBUTION_HEADER, display),
        )
    )

    _, rows = read_csv(artifact_dir / PRECISION_CSV, PRECISION_HEADER)
    display = []
    for (
        comparison, stratum, n_finder, unsafe_finder, pct_finder, n_other, unsafe_other, pct_other,
        odds_ratio, ci_low, ci_high, p_value, _converged, _note,
    ) in rows:
        display.append(
            [
                comparison,
                stratum,
                f"{unsafe_finder}/{n_finder} ({_fmt(pct_finder, 1)}%)",
                f"{unsafe_other}/{n_other} ({_fmt(pct_other, 1)}%)",
                _fmt(odds_ratio, 2),
                f"{_fmt(ci_low, 2)}-{_fmt(ci_high, 2)}" if odds_ratio else "-",
                _fmt(p_value, 4),
            ]
        )
    parts.append(
        _section(
            "Unsafe-detection precision by trigger group",
            format_table(
                ["comparison", "stratum", "finder_unsafe", "other_unsafe", "OR", "ci95", "p"],
                display,
            ),
        )
    )

    _, rows = read_csv(artifact_dir / VIOLATIONS_CSV, VIOLATIONS_HEADER)
    display = [
        [severity, _fmt(finder_mean, 2), _fmt(baseline_mean, 2), _fmt(p_value, 4)]
        for severity, finder_mean, baseline_mean, p_value in rows
    ]
    parts.append(
        _section(
            "Adjusted mean violation counts (city and risk adjusted)",
            format_table(["severity", "finder_mean", "baseline_mean", "p"], display),
        )
    )

    _, rows = read_csv(artifact_dir / ATTRIBUTION_CSV, ATTRIBUTION_HEADER)
    display = [[rank, _fmt(fraction, 3)] for rank, fraction in rows]
    parts.append(
        _section(
            "Source attribution by visit recency rank",
            format_table(ATTRIBUTION_HEADER, display),
        )
    )

    _, rows = read_csv(artifact_dir / METRICS_CSV, METRICS_HEADER)
    parts.append(_section("Query classifier metrics", format_table(METRICS_HEADER, rows)))
    return "\n".join(parts)
