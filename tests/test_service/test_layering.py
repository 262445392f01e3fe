"""Layering: the single-process service never imports the fleet, and the
server never imports a client of itself."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(scope="module")
def server_modules():
    """The modules loaded after ``import repro.service.server``."""
    code = ("import json, sys, repro.service.server; "
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    loaded = json.loads(out.stdout)
    assert "repro.service.server" in loaded
    return loaded


def _under(loaded, package):
    return [m for m in loaded if m == package or m.startswith(package + ".")]


def test_server_loads_no_fleet_module(server_modules):
    assert _under(server_modules, "repro.service.fleet") == []


def test_server_loads_no_client_module(server_modules):
    for package in ("repro.bench", "repro.service.loadgen",
                    "repro.service.slo"):
        assert _under(server_modules, package) == [], package
