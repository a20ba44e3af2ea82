"""Issue corpus handling: records, filtering, tokenization, vocabulary, splits.

A corpus file is UTF-8 JSON-lines, one issue per line with keys
``project``, ``issue_key``, ``created_at`` (ISO-8601 UTC), ``title``,
``description`` and optionally ``story_points``. Issues without story
points are legal (they feed unsupervised pre-training).
"""

from __future__ import annotations

import hashlib
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

UNK_TOKEN = "<unk>"
EOS_TOKEN = "<eos>"

MAX_STORY_POINTS = 100.0
DEFAULT_MIN_PROJECT_SIZE = 300
TOKENIZER_MODES = ("word", "character")


class CorpusError(ValueError):
    """Raised for malformed corpus files or invalid corpus operations."""


@dataclass
class IssueRecord:
    """One tracker issue. ``story_points`` is None for unlabeled issues."""

    project: str
    issue_key: str
    created_at: datetime
    title: str
    description: str = ""
    story_points: float | None = None

    def __post_init__(self):
        if self.created_at.tzinfo is None:
            self.created_at = self.created_at.replace(tzinfo=timezone.utc)
        else:
            self.created_at = self.created_at.astimezone(timezone.utc)
        self.created_at = self.created_at.replace(microsecond=0)


def compose_document(issue: IssueRecord) -> str:
    """Join title and description into the single text the models consume."""
    if issue.description:
        return issue.title + " " + issue.description
    return issue.title


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp (JIRA variants included) to UTC seconds."""
    s = value.strip()
    if s.endswith("Z"):
        s = s[:-1] + "+00:00"
    # JIRA emits numeric offsets without a colon, e.g. +0000
    if len(s) >= 5 and s[-5] in "+-" and s[-3] != ":" and s[-4:].isdigit():
        s = s[:-4] + s[-4:-2] + ":" + s[-2:]
    try:
        dt = datetime.fromisoformat(s)
    except ValueError as exc:
        raise CorpusError(f"bad timestamp {value!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).replace(microsecond=0)


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class FilterStats:
    """What filter_issues removed and why."""

    input_count: int
    removed_bad_points: int
    removed_small_project: int

    @property
    def removed(self) -> int:
        return self.removed_bad_points + self.removed_small_project

    @property
    def removed_fraction(self) -> float:
        return self.removed / self.input_count if self.input_count else 0.0


def filter_issues(
    raw: list[IssueRecord], min_project_size: int = DEFAULT_MIN_PROJECT_SIZE
) -> tuple[list[IssueRecord], FilterStats]:
    """Drop issues with out-of-range story points, then undersized projects.

    Keeps issues with 0 < story_points <= 100, then drops every issue of
    projects whose surviving labeled count is <= min_project_size. Unlabeled
    issues pass the point filter but do not count toward project size.
    Input order is preserved.
    """
    if min_project_size < 0:
        raise ValueError("min_project_size must be >= 0")
    point_ok = [
        r
        for r in raw
        if r.story_points is None or 0 < r.story_points <= MAX_STORY_POINTS
    ]
    labeled_per_project = Counter(
        r.project for r in point_ok if r.story_points is not None
    )
    kept = [r for r in point_ok if labeled_per_project[r.project] > min_project_size]
    stats = FilterStats(
        input_count=len(raw),
        removed_bad_points=len(raw) - len(point_ok),
        removed_small_project=len(point_ok) - len(kept),
    )
    return kept, stats


def _strip_edge_punctuation(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str, mode: str = "word") -> list[str]:
    """Split text into tokens and append the end-of-sequence sentinel.

    Word mode lowercases, splits on whitespace and strips punctuation
    (Unicode category P*) off token edges. Character mode keeps every
    Unicode scalar, whitespace included, so joining the tokens (minus the
    sentinel) reproduces the input exactly.
    """
    if mode == "word":
        tokens = []
        for raw in text.lower().split():
            # no alphanumeric character is punctuation, so a word with
            # alphanumeric edges has nothing to strip (most words)
            if raw[0].isalnum() and raw[-1].isalnum():
                tokens.append(raw)
                continue
            tok = _strip_edge_punctuation(raw)
            if tok:
                tokens.append(tok)
        tokens.append(EOS_TOKEN)
        return tokens
    if mode == "character":
        return list(text) + [EOS_TOKEN]
    raise ValueError(f"unknown tokenizer mode {mode!r}")


@dataclass
class Vocabulary:
    """Token/index bijection with reserved unknown and end-of-sequence ids."""

    tokens: list[str]
    mode: str
    index: dict[str, int] = field(init=False, repr=False)
    unk_id: int = field(init=False)
    eos_id: int = field(init=False)

    def __post_init__(self):
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise CorpusError("duplicate token in vocabulary")
        self.unk_id = self.index[UNK_TOKEN]
        self.eos_id = self.index[EOS_TOKEN]

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: list[str]) -> list[int]:
        """Map tokens to ids, sending out-of-vocabulary tokens to unk."""
        unk = self.unk_id
        return [self.index.get(t, unk) for t in tokens]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.mode.encode("utf-8"))
        for tok in self.tokens:
            h.update(b"\x00")
            h.update(tok.encode("utf-8"))
        return h.hexdigest()


def build_vocabulary(
    docs: list[list[str]], min_count: int = 1, max_size: int = 50000, mode: str = "word"
) -> Vocabulary:
    """Build a frequency-ordered vocabulary with reserved unk/eos entries.

    Tokens seen fewer than min_count times are dropped; ties in frequency
    break lexicographically. The reserved entries occupy the first two slots
    and count toward max_size.
    """
    if not docs:
        raise CorpusError("empty corpus")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if max_size < 2:
        raise ValueError("max_size must be >= 2")
    freq = Counter()
    for doc in docs:
        freq.update(doc)
    freq.pop(EOS_TOKEN, None)
    freq.pop(UNK_TOKEN, None)
    ranked = sorted(
        (t for t, c in freq.items() if c >= min_count),
        key=lambda t: (-freq[t], t),
    )
    tokens = [UNK_TOKEN, EOS_TOKEN] + ranked[: max_size - 2]
    return Vocabulary(tokens=tokens, mode=mode)


def read_utf8(path: str | Path, newline: str | None = None) -> str:
    """The text of a UTF-8 file, opened with `newline` as `open` takes it.
    Raises CorpusError naming the file and the byte offset of the first
    byte that is not UTF-8."""
    with Path(path).open("r", encoding="utf-8", newline=newline) as fh:
        try:
            return fh.read()  # one decode of the whole file: offsets are the file's
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 at byte {exc.start} ({exc.reason})") from None


# Tokens are one per line in vocabulary files; escape the characters that
# would break the line framing (character mode emits literal newlines).
_ESCAPES = {"\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\\\": "\\", "\\n": "\n", "\\r": "\r", "\\t": "\t"}


def escape_token(token: str) -> str:
    out = token
    for raw, esc in _ESCAPES.items():
        out = out.replace(raw, esc)
    return out


def _unescape_token(line: str) -> str:
    """Undo escape_token, pairing backslashes left to right; a backslash
    that starts no escape stays as it is."""
    return re.sub(r"\\[\\nrt]", lambda m: _UNESCAPES[m.group()], line)


# First line of a vocabulary file. No token can start a line with it: word
# tokens lose edge punctuation, character tokens are one character long.
MODE_HEADER = "#mode="


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Write the tokenizer-mode header, then one token per line in index
    order; the reserved entries lead."""
    lines = [MODE_HEADER + vocab.mode + "\n"] + [escape_token(tok) + "\n" for tok in vocab.tokens]
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a vocabulary file in the tokenizer mode its header names.

    Raises CorpusError when the first line is not a mode header.
    """
    lines = read_utf8(path).split("\n")
    mode = lines.pop(0)[len(MODE_HEADER):] if lines[0].startswith(MODE_HEADER) else None
    if mode not in TOKENIZER_MODES:
        raise CorpusError(f"vocabulary file {path} does not start with a line "
                          + " or ".join(MODE_HEADER + m for m in TOKENIZER_MODES))
    tokens = [_unescape_token(line) if "\\" in line else line for line in lines if line != ""]
    if len(tokens) < 2 or tokens[0] != UNK_TOKEN or tokens[1] != EOS_TOKEN:
        raise CorpusError(f"vocabulary file {path} lacks reserved tokens")
    return Vocabulary(tokens=tokens, mode=mode)


@dataclass
class SplitDataset:
    """Chronological train/validation/test partitions of labeled issues."""

    train: list[IssueRecord]
    valid: list[IssueRecord]
    test: list[IssueRecord]


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


def split_chronological(issues: list[IssueRecord]) -> SplitDataset:
    """Split labeled issues 60/20/20 by creation time (oldest first).

    Ties on the timestamp break by issue key so the split is deterministic.
    """
    if any(r.story_points is None for r in issues):
        raise CorpusError("cannot split unlabeled issues")
    n = len(issues)
    if n < 5:
        raise CorpusError("too few issues to split")
    ordered = sorted(issues, key=lambda r: (r.created_at, r.issue_key))
    n_train = _round_half_up(0.6 * n)
    n_valid = _round_half_up(0.2 * n)
    return SplitDataset(
        train=ordered[:n_train],
        valid=ordered[n_train : n_train + n_valid],
        test=ordered[n_train + n_valid :],
    )


def dataset_stats(issues: list[IssueRecord], lengths: list[int] | None = None) -> dict:
    """Summary statistics of story points plus mean text length in words.

    Variance and standard deviation are population (divide by N); the mode
    resolves ties to the smallest value. Token counts exclude the
    end-of-sequence sentinel; a caller that has tokenized the issues in word
    mode already passes those counts as `lengths`, in issue order.
    """
    if not issues:
        raise CorpusError("no issues to summarize")
    if any(r.story_points is None for r in issues):
        raise CorpusError("dataset_stats requires labeled issues")
    points = sorted(r.story_points for r in issues)
    n = len(points)
    mean = sum(points) / n
    if n % 2 == 1:
        median = points[n // 2]
    else:
        median = (points[n // 2 - 1] + points[n // 2]) / 2
    counts = Counter(points)
    top = max(counts.values())
    mode = min(v for v, c in counts.items() if c == top)
    var = sum((p - mean) ** 2 for p in points) / n
    if lengths is None:
        lengths = [len(tokenize(compose_document(r), "word")) - 1 for r in issues]
    elif len(lengths) != n:
        raise CorpusError(f"{len(lengths)} lengths for {n} issues")
    return {
        "count": n,
        "min_sp": points[0],
        "max_sp": points[-1],
        "mean_sp": mean,
        "median_sp": median,
        "mode_sp": mode,
        "var_sp": var,
        "std_sp": var**0.5,
        "mean_length": sum(lengths) / n,
    }


def record_to_json(record: IssueRecord) -> str:
    obj = {
        "project": record.project,
        "issue_key": record.issue_key,
        "created_at": format_timestamp(record.created_at),
        "title": record.title,
        "description": record.description,
    }
    if record.story_points is not None:
        obj["story_points"] = record.story_points
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def record_from_json(line: str) -> IssueRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"bad corpus line: {exc}") from exc
    for key in ("project", "issue_key", "created_at", "title"):
        if not isinstance(obj.get(key), str):
            raise CorpusError(f"corpus record missing or non-text {key!r}")
    title = obj["title"]
    if not title.strip():
        raise CorpusError(f"issue {obj['issue_key']!r} has an empty title")
    sp = obj.get("story_points")
    if sp is not None and (isinstance(sp, bool) or not isinstance(sp, (int, float))):
        raise CorpusError(f"issue {obj['issue_key']!r} has non-numeric story points")
    return IssueRecord(
        project=obj["project"],
        issue_key=obj["issue_key"],
        created_at=parse_timestamp(obj["created_at"]),
        title=title,
        description=obj.get("description", "") or "",
        story_points=float(sp) if sp is not None else None,
    )


def write_lines(lines: list[str], path: str | Path) -> None:
    """Write corpus lines, each ending in "\\n", as they are."""
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise CorpusError(f"cannot write corpus {path}: {exc}") from exc


def write_corpus(records: list[IssueRecord], path: str | Path) -> int:
    """Write records as JSON lines. Output bytes are deterministic."""
    write_lines([record_to_json(record) + "\n" for record in records], path)
    return len(records)


def load_bundled_corpus() -> list[IssueRecord]:
    """The 64-issue synthetic keyword corpus shipped with the package.

    Story points are 1 when the title contains the token "easy" and 8
    otherwise, alternating chronologically, so the 60/20/20 split keeps
    both labels balanced and the mean/median baselines land at MAE 3.5.
    """
    from importlib import resources

    with resources.files("storypoint.data").joinpath("synthetic64.jsonl").open(
        "r", encoding="utf-8"
    ) as fh:
        return [record_from_json(line) for line in fh if line.strip()]


def read_corpus(path: str | Path) -> list[IssueRecord]:
    """Read a JSON-lines corpus file, enforcing unique issue keys."""
    path = Path(path)
    records = []
    seen = set()
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    # Records end at "\n" only. JSON escapes every control character, but
    # U+0085, U+2028 and U+2029 stay raw, and str.splitlines breaks at them.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = record_from_json(line)
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from exc
        if record.issue_key in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate issue key {record.issue_key!r}")
        seen.add(record.issue_key)
        records.append(record)
    return records
