"""Layering: the single-process service never imports the fleet."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_server_loads_no_fleet_module():
    code = ("import json, sys, repro.service.server; "
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    loaded = json.loads(out.stdout)
    assert "repro.service.server" in loaded
    assert [m for m in loaded if m.startswith("repro.service.fleet")] == []
