"""CSV artifacts and the human-readable run report.

Every table the pipeline emits is a plain CSV; the text report is rendered
from those CSVs (not from in-memory state), so the two can never disagree.
Floats are written with ``repr`` and parse back to the exact same values.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from .errors import DataError, DataFormatError

METRICS_CSV = "wsm_metrics.csv"
DAILY_LISTS_CSV = "daily_lists.csv"
RELEASED_CSV = "released_aggregates.csv"
PRECISION_CSV = "precision.csv"
RISK_DISTRIBUTION_CSV = "risk_distribution.csv"
VIOLATIONS_CSV = "violations.csv"
ATTRIBUTION_CSV = "attribution.csv"

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
RELEASED_HEADER = DAILY_LIST_HEADER + ["suppressed"]
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


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and data rows of a pipeline CSV; a data row cut short or
    run long is a data error that names the file and line."""
    if not path.exists():
        raise DataError(f"missing artifact {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader if row]
    for lineno, row in enumerate(rows, start=2):  # the writer emits no blank lines
        if len(row) != len(header):
            raise DataFormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
    return header, rows


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

    header, rows = read_csv(artifact_dir / RISK_DISTRIBUTION_CSV)
    display = [
        [r[0], r[1], _fmt(r[2], 1) + "%", r[3], _fmt(r[4], 1) + "%", _fmt(r[5], 4)]
        for r in rows
    ]
    parts.append(
        _section(
            "Risk-level distribution of inspections",
            format_table(
                ["risk_level", "finder_n", "finder_pct", "baseline_n", "baseline_pct", "chi2_p"],
                display,
            ),
        )
    )

    path = artifact_dir / PRECISION_CSV
    header, rows = read_csv(path)
    missing = [name for name in PRECISION_HEADER if name not in header]
    if missing:
        raise DataFormatError(f"{path}:1: missing column {missing[0]}")
    idx = {name: header.index(name) for name in header}
    display = []
    for r in rows:
        oratio = r[idx["odds_ratio"]]
        ci = "-"
        if oratio:
            ci = f"{_fmt(r[idx['ci_low']], 2)}-{_fmt(r[idx['ci_high']], 2)}"
        display.append(
            [
                r[idx["comparison"]],
                r[idx["stratum"]],
                f"{r[idx['unsafe_finder']]}/{r[idx['n_finder']]} ({_fmt(r[idx['pct_finder']], 1)}%)",
                f"{r[idx['unsafe_other']]}/{r[idx['n_other']]} ({_fmt(r[idx['pct_other']], 1)}%)",
                _fmt(oratio, 2),
                ci,
                _fmt(r[idx["p_value"]], 4),
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

    header, rows = read_csv(artifact_dir / VIOLATIONS_CSV)
    display = [[r[0], _fmt(r[1], 2), _fmt(r[2], 2), _fmt(r[3], 4)] for r in rows]
    parts.append(
        _section(
            "Adjusted mean violation counts (city and risk adjusted)",
            format_table(["severity", "finder_mean", "baseline_mean", "p"], display),
        )
    )

    header, rows = read_csv(artifact_dir / ATTRIBUTION_CSV)
    display = [[r[0], _fmt(r[1], 3)] for r in rows]
    parts.append(
        _section(
            "Source attribution by visit recency rank",
            format_table(["rank", "fraction"], display),
        )
    )

    header, rows = read_csv(artifact_dir / METRICS_CSV)
    parts.append(
        _section("Query classifier metrics", format_table(["metric", "value"], rows))
    )
    return "\n".join(parts)
