"""Byte-for-byte goldens of the package's seeded outputs.

The three sweeps (CSV and JSON), the distortion audit report, and the CLI
``generate``/``detect`` output with each default strategy as ``methods[0]``
are produced at a reduced size from ``golden/config.json`` and compared
with the files under ``golden/``.  A change that alters any seeded number
fails here.  To re-bless the goldens after an intended change, run

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from clustermark.cli import main
from clustermark.experiments import (
    ExperimentConfig,
    run_ablation_h,
    run_detectability,
    run_distortion_audit,
    run_robustness,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = GOLDEN / "config.json"


def _sweep(run, stem):
    def produce(tmp: Path) -> dict[str, bytes]:
        table = run(ExperimentConfig.from_dict(json.loads(CONFIG.read_text())))
        table.write_csv(tmp / f"{stem}.csv")
        table.write_json(tmp / f"{stem}.json")
        return {name: (tmp / name).read_bytes() for name in (f"{stem}.csv", f"{stem}.json")}
    return produce


def _audit(tmp: Path) -> dict[str, bytes]:
    report = run_distortion_audit(ExperimentConfig.from_dict(json.loads(CONFIG.read_text())))
    return {"distortion_audit.json": (json.dumps(report, indent=2) + "\n").encode()}


def _cli(tmp: Path) -> dict[str, bytes]:
    """Tokens written by ``generate`` and the report printed by ``detect``,
    once per configured method as the CLI's primary method."""
    base = json.loads(CONFIG.read_text())
    out = {}
    for method in base["methods"]:
        name = method["strategy"]
        cfg_path = tmp / f"{name}.json"
        cfg_path.write_text(json.dumps({**base, "methods": [method]}))
        toks = tmp / f"{name}.tokens.txt"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["generate", "--config", str(cfg_path), "--out", str(tmp),
                         "--length", "60", "--tokens-out", str(toks)])
        assert code == 0, f"generate {name} exited {code}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["detect", "--config", str(cfg_path), "--tokens", str(toks)])
        assert code == 0, f"detect {name} exited {code}"
        out[f"cli/{name}.tokens.txt"] = toks.read_bytes()
        out[f"cli/{name}.detect.json"] = stdout.getvalue().encode()
    return out


PRODUCERS = {
    "detectability": _sweep(run_detectability, "detectability"),
    "robustness": _sweep(run_robustness, "robustness"),
    "ablation_h": _sweep(run_ablation_h, "ablation_h"),
    "audit": _audit,
    "cli": _cli,
}


@pytest.mark.parametrize("group", sorted(PRODUCERS))
def test_outputs_match_goldens(group, tmp_path):
    for name, data in PRODUCERS[group](tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} differs from its golden"


def _rewrite() -> None:
    for group, produce in PRODUCERS.items():
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in produce(Path(tmp)).items():
                path = GOLDEN / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
                print(f"wrote {path.relative_to(GOLDEN.parent)}", file=sys.stderr)


if __name__ == "__main__":
    _rewrite()
