"""Network-document parsing and report emission.

The network document is a UTF-8 JSON object:

    {
      "comment": "optional free text",
      "stakeholders": [{"id": "A", "level": "federal"}, ...],
      "start": "A",
      "flows": [{"from": "A", "to": "B", "frequency": 60}, ...]
    }

"to" may name a stakeholder or one of the absorbing states DI/S/US; those
three labels are reserved and may not be stakeholder ids. Parsing checks
only the document: ParseError if it is not UTF-8, not JSON, or holds a NaN
or Infinity token; SchemaError if its shape or a field's type is wrong.
Every rule of the network's meaning (reserved ids, levels, duplicates,
declared start and endpoints, frequencies, absorption) is network.validate's,
raised as ValidationError with the full report. Reports are JSON
objects carrying the command name, a SHA-256 digest of the input bytes, the
seed/iterations used, and the result payload; the CSV variant flattens the
numeric table. All floats are serialized with repr precision, so reparsing
reproduces them bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from typing import Any

from .errors import ParseError, SchemaError
from .network import FlowRecord, NetworkSpec, Stakeholder, require_valid
from .sensitivity import SweepResult
from .simulation import SimulationSummary

_TOP_KEYS = {"stakeholders", "start", "flows"}
_OPTIONAL_TOP_KEYS = {"comment"}


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed")


def parse_network(data: bytes | str) -> NetworkSpec:
    """Parse and validate a network document.

    Raises ParseError if the bytes are not UTF-8, not JSON, or hold a NaN or
    Infinity token; SchemaError if the document has the wrong shape or field
    types; and ValidationError, carrying validate's full report, if the
    network it describes breaks a rule of the network's meaning.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(data, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc

    if not isinstance(obj, dict):
        raise SchemaError("top level must be a JSON object")
    keys = set(obj)
    missing = _TOP_KEYS - keys
    extra = keys - _TOP_KEYS - _OPTIONAL_TOP_KEYS
    if missing:
        raise SchemaError(f"missing top-level keys: {sorted(missing)}")
    if extra:
        raise SchemaError(f"unexpected top-level keys: {sorted(extra)}")
    if "comment" in obj and not isinstance(obj["comment"], str):
        raise SchemaError("'comment' must be a string")

    raw_stakeholders = obj["stakeholders"]
    if not isinstance(raw_stakeholders, list) or not raw_stakeholders:
        raise SchemaError("'stakeholders' must be a non-empty array")
    stakeholders = []
    for entry in raw_stakeholders:
        if not isinstance(entry, dict) or set(entry) != {"id", "level"}:
            raise SchemaError(f"stakeholder entries need exactly id and level: {entry}")
        sid, level = entry["id"], entry["level"]
        if not isinstance(sid, str) or not sid:
            raise SchemaError(f"stakeholder id must be a non-empty string: {sid!r}")
        if not isinstance(level, str):
            raise SchemaError(f"stakeholder level must be a string: {level!r}")
        stakeholders.append(Stakeholder(sid, level))

    start = obj["start"]
    if not isinstance(start, str):
        raise SchemaError(f"start must be a string: {start!r}")

    raw_flows = obj["flows"]
    if not isinstance(raw_flows, list):
        raise SchemaError("'flows' must be an array")
    flows = []
    for entry in raw_flows:
        if not isinstance(entry, dict) or set(entry) != {"from", "to", "frequency"}:
            raise SchemaError(f"flow entries need exactly from, to, frequency: {entry}")
        src, dst, freq = entry["from"], entry["to"], entry["frequency"]
        if not isinstance(src, str) or not isinstance(dst, str):
            raise SchemaError(f"flow 'from' and 'to' must be strings: {src!r}, {dst!r}")
        if isinstance(freq, bool) or not isinstance(freq, (int, float)):
            raise SchemaError(f"flow frequency must be a number: {freq!r}")
        try:
            freq = float(freq)
        except OverflowError:  # an integer beyond float range, as json reads 1e999 as inf
            freq = math.inf if freq > 0 else -math.inf
        flows.append(FlowRecord(src, dst, freq))

    spec = NetworkSpec(tuple(stakeholders), tuple(flows), start)
    require_valid(spec)
    return spec


def network_to_document(spec: NetworkSpec, comment: str | None = None) -> dict:
    doc: dict[str, Any] = {}
    if comment is not None:
        doc["comment"] = comment
    doc["stakeholders"] = [{"id": s.id, "level": s.level} for s in spec.stakeholders]
    doc["start"] = spec.start
    doc["flows"] = [
        {"from": f.source, "to": f.target, "frequency": f.frequency} for f in spec.flows
    ]
    return doc


def input_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Report documents


def report_document(
    command: str,
    digest: str,
    result: dict,
    seed: int | None = None,
    iterations: int | None = None,
) -> dict:
    return {
        "command": command,
        "input_digest": digest,
        "seed": seed,
        "iterations": iterations,
        "result": result,
    }


def simulation_result(summary: SimulationSummary, start: str) -> dict:
    return {
        "start": start,
        "mean_di": summary.mean_di,
        "mean_s": summary.mean_s,
        "mean_us": summary.mean_us,
        "std_s": summary.std_s,
        "histogram": {
            "edges": summary.histogram_edges.tolist(),
            "counts": summary.histogram_counts.tolist(),
        },
        "samples": summary.samples.tolist(),
    }


def sweep_result(sweep: SweepResult) -> dict:
    return {
        "stakeholder": sweep.stakeholder,
        "mode": sweep.mode,
        "n_di_values": list(sweep.n_di_values),
        "means": sweep.means.tolist(),
        "p_s_max": sweep.p_s_max,
        "p_s_min": sweep.p_s_min,
        "impact_ratio": sweep.impact_ratio,
    }


def rank_result(sweeps: list[SweepResult], mode: str) -> dict:
    return {
        "mode": mode,
        "ranking": [
            {
                "stakeholder": sw.stakeholder,
                "impact_ratio": sw.impact_ratio,
                "n_di_min": sw.n_di_min,
                "n_di_max": sw.n_di_max,
                "p_s_max": sw.p_s_max,
                "p_s_min": sw.p_s_min,
            }
            for sw in sweeps
        ],
    }


def evaluate_result(mode: str, start: str, row) -> dict:
    return {
        "mode": mode,
        "start": start,
        "p_di": float(row[0]),
        "p_s": float(row[1]),
        "p_us": float(row[2]),
    }


def validation_result(report) -> dict:
    return {"ok": report.ok, "violations": list(report.violations)}


def report_to_json_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2) + "\n").encode("utf-8")


def _csv_bytes(header: list[str], rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode("utf-8")


def report_to_csv_bytes(report: dict) -> bytes:
    """Flatten the report's numeric table; values match the JSON variant."""
    command = report["command"]
    result = report["result"]
    if command == "simulate":
        rows = [
            (i, *(float(x) for x in triple))
            for i, triple in enumerate(result["samples"])
        ]
        return _csv_bytes(["iteration", "p_di", "p_s", "p_us"], rows)
    if command == "sweep":
        rows = [
            (float(n), *(float(x) for x in mean))
            for n, mean in zip(result["n_di_values"], result["means"])
        ]
        return _csv_bytes(["n_di", "mean_p_di", "mean_p_s", "mean_p_us"], rows)
    if command == "rank":
        rows = [
            (
                entry["stakeholder"],
                float(entry["n_di_min"]),
                float(entry["n_di_max"]),
                float(entry["p_s_min"]),
                float(entry["p_s_max"]),
                float(entry["impact_ratio"]),
            )
            for entry in result["ranking"]
        ]
        return _csv_bytes(
            ["stakeholder", "n_di_min", "n_di_max", "p_s_min", "p_s_max", "impact_ratio"],
            rows,
        )
    if command == "evaluate":
        row = (
            result["start"],
            float(result["p_di"]),
            float(result["p_s"]),
            float(result["p_us"]),
        )
        return _csv_bytes(["start", "p_di", "p_s", "p_us"], [row])
    if command == "validate":
        return _csv_bytes(["violation"], [(v,) for v in result["violations"]])
    raise ValueError(f"no CSV layout for command {command!r}")
