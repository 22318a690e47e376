"""A fixed set of CLI configs and what each one gives.

Each file in configs/ is a run configuration; the part of its name before
the first "-" is the command it runs (params, propagate, sweep, check or
optimize), as

    qtweezers <command> --config configs/<name>.json --out <dir>

run in-process by cli.main.  expected/<name>.json records, for the run:

    exit           the exit code (1 for an uncaught exception, as the
                   interpreter gives)
    stderr         the first line of standard error, "" if none
    stdout_sha256  the sha256 of standard output
    files          per output file, its sha256 and its parsed values: a
                   JSON file's content; a CSV's header and rows (an empty
                   field as null), but only the row count and the first and
                   last rows of a trajectory.csv

sweep_meta.json is read and hashed without "wall_ms", the one timing it
holds.  tests/test_corpus.py compares exit codes, stderr lines,
CSV headers and every value that is not a float exactly, and floats to
1e-12.  This script makes the strict comparison, or rewrites the
expectations, with the package imported from the src/ of the checkout that
holds it:

    python tests/corpus/corpus.py check [name ...]
    python tests/corpus/corpus.py rewrite [name ...]

check lists every run whose exit code, stderr line or any sha256 differs,
and exits 1 if there is one.  Under such a run it prints, for each output
file that differs, the change in its row count (a CSV's) and the largest
absolute difference between floats at the same place, with that place.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
EXPECTED = HERE / "expected"


def names() -> list[str]:
    return sorted(path.stem for path in CONFIGS.glob("*.json"))


def _field(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _parse(name: str, text: str) -> dict:
    if name.endswith(".json"):
        return {"values": json.loads(text)}
    lines = text.splitlines()
    rows = [[_field(item) for item in line.split(",")] for line in lines[1:]]
    parsed = {"header": lines[0].split(",")}
    if name == "trajectory.csv":
        parsed.update(rows=len(rows), first=rows[0], last=rows[-1])
    else:
        parsed["rows"] = rows
    return parsed


def _without_timing(name: str, text: str) -> str:
    """The file's text; sweep_meta.json as cli writes it, less "wall_ms"."""
    if name != "sweep_meta.json":
        return text
    meta = json.loads(text)
    del meta["wall_ms"]
    return json.dumps(meta, indent=2, sort_keys=True) + "\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run(name: str) -> dict:
    """Run one config in-process and record what it gives."""
    from quantum_tweezers.cli import main

    command = name.split("-", 1)[0]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        argv = [command, "--config", str(CONFIGS / f"{name}.json"), "--out", out]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            # every warning, to stderr, as a fresh interpreter shows it
            warnings.simplefilter("always")
            warnings.showwarning = _show_warning
            try:
                code = main(argv)
            except Exception:
                traceback.print_exc()
                code = 1
        files = {}
        for path in sorted(Path(out).iterdir()):
            text = _without_timing(path.name, path.read_text(encoding="utf-8"))
            files[path.name] = {"sha256": _sha256(text), **_parse(path.name, text)}
    return {"exit": code, "stderr": (stderr.getvalue().splitlines() or [""])[0],
            "stdout_sha256": _sha256(stdout.getvalue()), "files": files}


def expected(name: str) -> dict:
    return json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8"))


def strict_differences(record: dict, want: dict) -> list[str]:
    """What differs bit for bit: exit code, stderr line, stdout and file hashes."""
    diffs = [key for key in ("exit", "stderr", "stdout_sha256")
             if record[key] != want[key]]
    if sorted(record["files"]) != sorted(want["files"]):
        diffs.append(f"files {sorted(record['files'])} != {sorted(want['files'])}")
    diffs += [file for file in record["files"]
              if file in want["files"]
              and record["files"][file]["sha256"] != want["files"][file]["sha256"]]
    return diffs


def _float_gaps(got, want, where=""):
    """(|got - want|, place) for each pair of floats at the same place.

    Two NaNs differ by 0, a NaN and a number by inf.
    """
    if isinstance(got, float) and isinstance(want, float):
        if math.isnan(got) or math.isnan(want):
            yield (0.0 if math.isnan(got) and math.isnan(want) else math.inf), where
        else:
            yield abs(got - want), where
    elif isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(got.keys() & want.keys()):
            yield from _float_gaps(got[key], want[key], f"{where}.{key}")
    elif isinstance(got, list) and isinstance(want, list):
        for index, (a, b) in enumerate(zip(got, want)):
            yield from _float_gaps(a, b, f"{where}[{index}]")


def _row_count(parsed: dict) -> int | None:
    rows = parsed.get("rows")
    return len(rows) if isinstance(rows, list) else rows


def file_differences(record: dict, want: dict) -> list[str]:
    """For each file in both whose sha256 differs: rows and largest float gap."""
    lines = []
    for file in sorted(record["files"].keys() & want["files"].keys()):
        got, old = record["files"][file], want["files"][file]
        if got["sha256"] == old["sha256"]:
            continue
        parts = []
        if _row_count(got) != _row_count(old):
            parts.append(f"rows {_row_count(old)} -> {_row_count(got)}")
        gap, where = max(_float_gaps(got, old), default=(None, ""), key=lambda g: g[0])
        if gap is not None:
            parts.append(f"largest float difference {gap:.3e} at {where}")
        lines.append(f"  {file}: {'; '.join(parts) or 'no float differs'}")
    return lines


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in ("check", "rewrite"):
        print(__doc__, file=sys.stderr)
        return 2
    chosen = argv[1:] or names()
    failed = 0
    for name in chosen:
        record = run(name)
        if argv[0] == "rewrite":
            (EXPECTED / f"{name}.json").write_text(
                json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            continue
        diffs = strict_differences(record, expected(name))
        if diffs:
            failed += 1
            print(f"{name}: {', '.join(diffs)}")
            for line in file_differences(record, expected(name)):
                print(line)
    if argv[0] == "check":
        print(f"{len(chosen) - failed} of {len(chosen)} runs identical")
    return 1 if failed else 0


if __name__ == "__main__":
    # the package of this checkout, before any installed copy
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
