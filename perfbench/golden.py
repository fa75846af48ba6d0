"""Golden outputs of every benchmark check, and the known answers they must
agree with.

A golden record holds a check's exit code and the sha256 and length of its
`--report` bytes, plus a readable summary of the verdicts: the count of
passes, the lex-first counterexample tuple of each failing identity and the
inapplicable identities.

Regenerate (only when a change is meant to alter reports) with

    python3 perfbench/golden.py

from the repository root; it refuses to write goldens that contradict the
known answers.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from harness import run_pass, set_up
from workloads import CATALOG_SEEDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "golden"


def summarize(outcome) -> dict:
    record = {"exit": outcome.exit_code, "sha256": None, "bytes": 0}
    if outcome.report is None:
        return record
    record["sha256"] = hashlib.sha256(outcome.report).hexdigest()
    record["bytes"] = len(outcome.report)
    data = json.loads(outcome.report)
    reports = data["reports"] if "reports" in data else [data]
    passes, fails, inapplicable = 0, {}, []
    for report in reports:
        for v in report["verdicts"]:
            if v["status"] == "pass":
                passes += 1
            elif v["status"] == "fail":
                fails[v["identity"]] = v["counterexample"]["basis_tuple"]
            else:
                inapplicable.append(v["identity"])
    record.update(passes=passes, fails=fails, inapplicable=inapplicable)
    return record


def matches(record: dict, outcome) -> bool:
    """Exit code and report bytes equal to the golden record."""
    if outcome.exit_code != record["exit"]:
        return False
    if outcome.report is None:
        return record["sha256"] is None
    return hashlib.sha256(outcome.report).hexdigest() == record["sha256"]


def path_for(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    return json.loads(path_for(workload).read_text(encoding="utf-8"))["checks"]


def catalog_statuses(src_dir: Path) -> dict:
    """Entry id -> status, read straight from the shipped catalog files."""
    out = {}
    for item in sorted((src_dir / "bihomcheck" / "data" / "catalog").glob("*.json")):
        cat = json.loads(item.read_text(encoding="utf-8"))["catalog"]
        out[cat["id"]] = cat["status"]
    return out


def _all_pass(record: dict) -> bool:
    return record["exit"] == 0 and not record["fails"] and not record["inapplicable"]


def known_answer_errors(workload: str, records: dict, src_dir: Path) -> list:
    """Disagreements between golden records and answers that do not come
    from the engine:

    * catalog: every `asserted-pass` entry passes every axis, in both modes
      and at every catalog seed;
    * tensor-sym: Thm 2.5's cyclic suite holds on the tensor square of a
      transposed bundle (entries 20 and 26 are asserted transposed);
    * ternary-q: tbp-3lie holds on the ternary bracket built from the
      independent derivation v*dv;
    * ternary-fail: built from non-derivations, each check fails.
    """
    errors = []
    if not records:
        return [f"{workload}: no golden records"]
    if workload == "catalog":
        asserted = {i for i, s in catalog_statuses(src_dir).items() if s == "asserted-pass"}
        if not asserted:
            errors.append("catalog: no asserted-pass entries found")
        for key, record in records.items():
            entry = int(key.split("/")[1].removeprefix("entry"))
            if entry in asserted and not _all_pass(record):
                errors.append(f"catalog {key}: asserted-pass entry does not pass")
            if record["exit"] != 0:
                errors.append(f"catalog {key}: exit {record['exit']}, want 0")
    elif workload in ("tensor-sym", "ternary-q"):
        for key, record in records.items():
            if not _all_pass(record):
                errors.append(f"{workload} {key}: does not pass every identity")
    elif workload == "ternary-fail":
        for key, record in records.items():
            if record["exit"] != 1 or not record["fails"]:
                errors.append(f"{workload} {key}: does not fail")
    return errors


def _write(workload: str, records: dict) -> None:
    lines = ",\n".join(
        f"    {json.dumps(k)}: {json.dumps(records[k], sort_keys=True)}" for k in sorted(records)
    )
    text = f'{{\n  "workload": {json.dumps(workload)},\n  "checks": {{\n{lines}\n  }}\n}}\n'
    GOLDEN_DIR.mkdir(exist_ok=True)
    path_for(workload).write_text(text, encoding="utf-8")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_out" / "golden"
    failed = False
    for name, workload in WORKLOADS.items():
        cli_main = set_up(workload, work / name / "bundles")
        records = {}
        for seed in range(CATALOG_SEEDS if workload.seeded else 1):
            checks = workload.checks(work / name / "bundles", seed)
            result = run_pass(cli_main, checks, work / name / "reports")
            for check, outcome in zip(checks, result.outcomes):
                records[check.key] = summarize(outcome)
        errors = known_answer_errors(name, records, ROOT / "src")
        for e in errors:
            print(f"known answer violated: {e}", file=sys.stderr)
        if errors:
            failed = True
            continue
        _write(name, records)
        print(f"wrote {path_for(name)} ({len(records)} checks)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
