"""Golden export hashes: every observability export, byte for byte.

Two small CLI runs with all seven ``--*-out`` flags on, each in a fresh
process (client thread names come from a process-global counter).  Each
export's sha256, with its provenance meta line dropped, must equal the
hash recorded here.  ``table2`` covers the single-server attach path
(three server kinds, no LAN probes, 8 profiled resources); ``table3``
covers the cluster path.

A change that moves any of these hashes changes what the collectors
record.  When that is intended, say so in the change and re-record with
the printed actual hashes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: suffix of each --*-out flag's file
EXPORTS = {
    "--trace-out": "trace.jsonl",
    "--metrics-out": "metrics.prom",
    "--audit-out": "audit.jsonl",
    "--timeseries-out": "ts.jsonl",
    "--profile-out": "profile.json",
    "--streaming-out": "streaming.jsonl",
    "--critical-out": "critical.json",
}

COMMANDS = {
    "table2": ["table2", "--clients", "2", "--requests-per-client", "20"],
    "table3": ["table3", "--nodes", "2", "--requests", "40"],
}

GOLDEN = {
    "table2": {
        "trace.jsonl": "3e7e68d7e509f18d4d2942796fb6e8f6fb66e2887ae4a5b6bbe3dd5a30ad2fd2",
        "metrics.prom": "0b5ded153a4016871a554451485a8b5d7a6d6a371a0a751b03fb7decc5275ab3",
        "audit.jsonl": "d9c1cb9c9d1588d19567931282ba884f001efb17cfae5f5ba925d14d40f8356c",
        "ts.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "profile.json": "8192c7644a106ae8ad3ccb6a06a2fa27ccc01a59bcd95ecd83b7391922f73c5c",
        "streaming.jsonl": "74e1851cc9806825b7d74f037ecf75736c4b259cbaf7f5fac7ed698ed8f0ab45",
        "critical.json": "0f62b004976bba2b1d338c08d8ca16294b281ee6b883d8e85b0859435e76507b",
    },
    "table3": {
        "trace.jsonl": "df4295bf472e7b8a1abfbf544ae77956094c5e19ac7c679ab06c5f7dfa3cd65a",
        "metrics.prom": "7c7dc83172b1a631e74199498b831f7964a095eb1af9cb81855dff857f18987f",
        "audit.jsonl": "c14137018ef26675316a935947820b4e712b4e97c57e8d684bcc2bac0a132990",
        "ts.jsonl": "4fe1f6b171768cc80fa720eee0414aeb9685125474280a5c059d8395afe3a9b8",
        "profile.json": "c7210cd6dc1f2c16065fe4d180de898b9df090ceac704a3c73624c5af9a9394d",
        "streaming.jsonl": "492c9f25e1d87be690fff7eefbc42754c8ba2c9cae56cb0e6198458975541f25",
        "critical.json": "549fec2168382f0ddb7c222f705aaf40246a71c1223f3a8d36a8f13010059e1e",
    },
}


def digest(path: Path) -> str:
    """sha256 of an export without its provenance meta record."""
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text)
        data.pop("meta", None)
        body = json.dumps(data, sort_keys=True, separators=(",", ":"))
    else:
        body = "".join(
            line for line in text.splitlines(keepends=True)
            if not line.startswith("# meta ") and '"type":"meta"' not in line
        )
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_exports_match_golden_hashes(command, tmp_path):
    argv = [sys.executable, "-m", "repro", *COMMANDS[command]]
    for flag, suffix in EXPORTS.items():
        argv += [flag, str(tmp_path / suffix)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True)
    actual = {suffix: digest(tmp_path / suffix) for suffix in EXPORTS.values()}
    assert actual == GOLDEN[command]
