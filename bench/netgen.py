"""Seeded synthetic stakeholder networks for the benchmark.

A generated network is layered federal -> state -> local in declaration
order. Every stakeholder sends flow forward to a few later stakeholders,
locals also send to S and US, and any stakeholder may discard (DI). With
probability `back_edge_rate` a stakeholder also sends flow back to an
earlier one, so the chain has cycles. Forward flows end at the last
stakeholder, a local that always has S, US and DI flows, so every
stakeholder reaches an absorbing state and the document passes
`infoflow validate`.

Only `random.Random` (Mersenne Twister, `random()` and `randrange()`) drives
the choices, so the same parameters give the same bytes on any CPython.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

LEVELS = ("federal", "state", "local")


@dataclass(frozen=True)
class NetParams:
    size: int
    seed: int
    level_mix: tuple[float, float, float] = (0.05, 0.25, 0.70)
    fan_out: tuple[int, int] = (3, 6)  # forward targets per stakeholder, inclusive
    back_edge_rate: float = 0.15
    counts: tuple[int, int] = (5, 40)  # integer flow frequency range, inclusive
    discard_rate: float = 0.5  # chance of a DI flow (always present on the last local)

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def _level_sizes(size: int, mix) -> list[int]:
    federal = max(1, round(size * mix[0]))
    state = round(size * mix[1])
    local = size - federal - state
    if local < 1:
        raise ValueError(f"level mix {mix} leaves no local stakeholder in {size}")
    return [federal, state, local]


def generate(p: NetParams) -> dict:
    """The network document for `p` as a JSON-ready dict."""
    if p.size < 2:
        raise ValueError("size must be >= 2")
    rnd = random.Random(p.seed)
    width = len(str(p.size - 1))
    stakeholders = []
    for level, count in zip(LEVELS, _level_sizes(p.size, p.level_mix)):
        for _ in range(count):
            stakeholders.append({"id": f"{level[0].upper()}{len(stakeholders):0{width}d}",
                                 "level": level})
    ids = [s["id"] for s in stakeholders]
    lo, hi = p.counts

    def count() -> int:
        return lo + rnd.randrange(hi - lo + 1)

    flows = []
    for i, s in enumerate(stakeholders):
        targets = []
        later = list(range(i + 1, p.size))
        k = p.fan_out[0] + rnd.randrange(p.fan_out[1] - p.fan_out[0] + 1)
        for _ in range(min(k, len(later))):
            targets.append(ids[later.pop(rnd.randrange(len(later)))])
        if i > 0 and rnd.random() < p.back_edge_rate:
            targets.append(ids[rnd.randrange(i)])
        absorbing = ["S", "US"] if s["level"] == "local" else []
        if rnd.random() < p.discard_rate or i == p.size - 1:
            absorbing.append("DI")
        for target in targets + absorbing:
            flows.append({"from": s["id"], "to": target, "frequency": count()})
    return {
        "comment": f"synthetic benchmark network {json.dumps(p.as_dict(), sort_keys=True)}",
        "stakeholders": stakeholders,
        "start": ids[0],
        "flows": flows,
    }


def to_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
