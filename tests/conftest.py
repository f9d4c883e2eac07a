import json
import os
import sys
from pathlib import Path

import pytest

import repscope

sys.path.insert(0, str(Path(__file__).parent))

HUMAN_LINES = [
    {"id": "h1", "summary": "The storm closed roads across the north on Monday morning.",
     "input": "A powerful storm closed roads across the north of the country on Monday morning, police said.",
     "architecture": "Human", "test_dataset": "CNN/DailyMail"},
    {"id": "h2", "summary": "The storm closed roads across the north and cut power to thousands.",
     "input": "Thousands lost power as the storm closed roads across the north.",
     "architecture": "Human", "test_dataset": "CNN/DailyMail"},
    {"id": "h3", "summary": "A new survey finds younger voters favour local candidates this year.",
     "input": "Survey results released today show younger voters favour local candidates.",
     "architecture": "Human", "test_dataset": "XSum"},
    {"id": "h4", "summary": "Officials promised answers after the audit of the transit agency.",
     "input": "City officials promised answers after an audit of the transit agency found gaps.",
     "architecture": "Human", "test_dataset": "XSum"},
]

BART_IN_DOMAIN_LINES = [
    {"id": "a1", "summary": "Sign up for our free daily briefing on storms and road closures today.",
     "input": "Storm coverage continues with road closures around the region.",
     "architecture": "BART", "train_dataset": "CNN/DailyMail", "test_dataset": "CNN/DailyMail"},
    {"id": "a2", "summary": "Sign up for our free daily briefing on weather across the north.",
     "input": "More storm reporting from the north.",
     "architecture": "BART", "train_dataset": "CNN/DailyMail", "test_dataset": "CNN/DailyMail"},
    {"id": "a3", "summary": "Voters are being asked about local candidates ahead of this election.",
     "input": "Local election coverage and voter interviews.",
     "architecture": "BART", "train_dataset": "CNN/DailyMail", "test_dataset": "XSum"},
    {"id": "a4", "summary": "The transit audit found significant gaps in spending controls overall.",
     "input": "The audit of the transit agency found significant gaps.",
     "architecture": "BART", "train_dataset": "CNN/DailyMail", "test_dataset": "XSum"},
]

BART_SHIFTED_LINES = [
    {"id": "b1", "summary": "Further research is needed to confirm the extent of the storm damage.",
     "input": "Storm damage across the north was extensive.",
     "architecture": "BART", "train_dataset": "XSum", "test_dataset": "CNN/DailyMail"},
    {"id": "b2", "summary": "Further research is needed to confirm the duration of road closures.",
     "input": "Roads were closed for days after the storm.",
     "architecture": "BART", "train_dataset": "XSum", "test_dataset": "CNN/DailyMail"},
    {"id": "b3", "summary": "Further research is needed to confirm the shift in voter turnout.",
     "input": "Turnout among younger voters rose sharply.",
     "architecture": "BART", "train_dataset": "XSum", "test_dataset": "XSum"},
    {"id": "b4", "summary": "Further research is needed to confirm the findings of the audit.",
     "input": "The transit audit is under review.",
     "architecture": "BART", "train_dataset": "XSum", "test_dataset": "XSum"},
]


def _valid_lines(count: int) -> bytes:
    return "".join(
        json.dumps({"id": f"s{i}", "summary": "a line of plain summary text",
                    "architecture": "A", "test_dataset": "d"}) + "\n"
        for i in range(count)
    ).encode()


# Corpus files that repscope cannot read into records, as (content, the line
# that holds the fault, the error it gets): a byte that is not UTF-8 after more
# than 8 KB of good lines, also in a file of \r\n line ends, an integer of more
# digits than Python converts, an array nested deeper than the parser recurses,
# a lone surrogate escape, which json accepts but no UTF-8 report can hold (the
# surrogate pair on the line before it is one character and loads), lines
# that end in a lone \r, which JSON Lines does not end a line at: the file is
# one line holding two records, and a line of characters that str.strip drops
# but JSON does not count as whitespace (a no-break space, a line separator,
# a next-line control and an information separator), so the line is not blank.
UNREADABLE_CORPORA = {
    "not_utf8": (_valid_lines(300) + b'{"id": "s\xff"}\n' + _valid_lines(1), 301,
                 "not valid UTF-8"),
    "not_utf8_crlf": (
        (_valid_lines(300) + b'{"id": "s\xff"}\n' + _valid_lines(1)).replace(b"\n", b"\r\n"),
        301, "not valid UTF-8",
    ),
    "huge_int": (_valid_lines(1) + b'{"id": ' + b"1" * 5000 + b"}\n", 2, "invalid JSON"),
    "deep_nest": (_valid_lines(1) + b"[" * 100_000 + b"\n", 2, "invalid JSON"),
    "lone_surrogate": (
        _valid_lines(1).replace(b"plain", b"\\ud83d\\ude00")
        + b'{"id": "s\\ud800", "summary": "", "architecture": "A", "test_dataset": "d"}\n',
        2, "field 'id' holds a lone surrogate",
    ),
    "lone_cr": (_valid_lines(2).replace(b"\n", b"\r"), 1, "invalid JSON: Extra data"),
    "not_json_whitespace": (_valid_lines(1) + " \u00a0\u2028\u0085\x1c\n".encode(), 2,
                            "invalid JSON"),
}


def write_jsonl(path: Path, objects) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return path


def child_env() -> dict[str, str]:
    """Environment for a child Python process that must import the package
    this test session imported: a relative PYTHONPATH (such as `src`) would
    not resolve from the child's working directory."""
    env = dict(os.environ)
    package_root = str(Path(repscope.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.fixture
def fixture_corpora(tmp_path):
    """Three small corpus files that together support every command,
    including a full-rank regression with one interaction column."""
    return [
        str(write_jsonl(tmp_path / "humans.jsonl", HUMAN_LINES)),
        str(write_jsonl(tmp_path / "bart_cnn.jsonl", BART_IN_DOMAIN_LINES)),
        str(write_jsonl(tmp_path / "bart_xsum.jsonl", BART_SHIFTED_LINES)),
    ]
