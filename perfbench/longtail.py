"""The ``long_tail`` rewrite: remove query repetition from a simulated log.

Real query logs are long-tailed, while the synthetic city draws its query
texts from small template pools, so most events repeat the feature-relevant
content of an earlier one. The rewrite appends one per-event token to each
query text and to each result snippet (real snippets quote the query). The
token is derived from the workload seed and the event's line index, so the
rewrite is deterministic. Line order, timestamps, users, URLs, titles, tags,
clicks and dwell times stay as they were, which keeps the ground-truth
labels (aligned with line order) valid.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def event_token(seed: int, index: int) -> str:
    """A lowercase alphanumeric token that tokenises as one word."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=6).hexdigest()
    return "lt" + digest


def rewrite_event(event: dict, token: str) -> dict:
    """Return a copy of one query-log record with ``token`` appended."""
    out = dict(event)
    out["text"] = f"{event['text']} {token}"
    out["results"] = [dict(page, snippet=f"{page['snippet']} {token}") for page in event["results"]]
    return out


def rewrite_queries(path: Path, seed: int) -> int:
    """Rewrite a ``queries.jsonl`` in place; returns the number of tokens added."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    out = []
    for index, line in enumerate(lines):
        event = json.loads(line)
        out.append(json.dumps(rewrite_event(event, event_token(seed, index)), ensure_ascii=False))
    path.write_text("".join(row + "\n" for row in out), encoding="utf-8")
    return len(out)
