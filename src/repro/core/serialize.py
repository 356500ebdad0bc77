"""Persistence of trained profiles.

RSkip's offline training produces, per target loop, a QoS model
(signature -> TP) and optionally a memoization table.  Deployment needs
these shipped alongside the executable; this module round-trips them
through plain JSON so a profile trained once can be reloaded by any later
run (`save_profiles` / `load_profiles`).
"""
from __future__ import annotations

import json
from typing import Dict, IO, Union

from .manager import LoopProfile
from .memoization import InputQuantizer, MemoTable
from .signature import QoSModel

FORMAT_VERSION = 1


def profile_to_dict(profile: LoopProfile) -> dict:
    out: dict = {
        "qos": {
            "table": dict(profile.qos.table),
            "default_tp": profile.qos.default_tp,
        },
        "default_tp": profile.default_tp,
    }
    if profile.memo is not None:
        memo = profile.memo
        out["memo"] = {
            "bits": list(memo.bits),
            "edges": [list(q.edges) for q in memo.quantizers],
            "table": {
                ",".join(str(k) for k in cell): value
                for cell, value in memo.table.items()
            },
        }
    return out


def profile_from_dict(data: dict) -> LoopProfile:
    qos_data = data.get("qos", {})
    qos = QoSModel(
        {str(k): float(v) for k, v in qos_data.get("table", {}).items()},
        default_tp=float(qos_data.get("default_tp", 0.5)),
    )
    memo = None
    memo_data = data.get("memo")
    if memo_data is not None:
        quantizers = [InputQuantizer([float(e) for e in edges])
                      for edges in memo_data["edges"]]
        table = {
            tuple(int(part) for part in key.split(",")): float(value)
            for key, value in memo_data["table"].items()
        }
        memo = MemoTable(
            quantizers,
            [int(b) for b in memo_data["bits"]],
            table,
        )
    default_tp = data.get("default_tp")
    return LoopProfile(
        qos=qos,
        memo=memo,
        default_tp=float(default_tp) if default_tp is not None else None,
    )


def profiles_to_json(profiles: Dict[str, LoopProfile]) -> str:
    payload = {
        "format": FORMAT_VERSION,
        "profiles": {key: profile_to_dict(p) for key, p in profiles.items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def profiles_from_json(text: str) -> Dict[str, LoopProfile]:
    payload = json.loads(text)
    version = payload.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported profile format {version!r}")
    return {
        key: profile_from_dict(data)
        for key, data in payload.get("profiles", {}).items()
    }


def save_profiles(profiles: Dict[str, LoopProfile], path_or_file: Union[str, IO]) -> None:
    text = profiles_to_json(profiles)
    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        path_or_file.write(text)


def load_profiles(path_or_file: Union[str, IO]) -> Dict[str, LoopProfile]:
    if isinstance(path_or_file, str):
        with open(path_or_file, "r", encoding="utf-8") as handle:
            return profiles_from_json(handle.read())
    return profiles_from_json(path_or_file.read())
