"""Regenerate data/probe_reference.json: the refined direct-solve probe readout.

Runs ``liouville.probe_spectrum`` over the whole 0.2-spaced grid of the
spectrum-triple-agreement criterion at omega_L = 0 and 8, plus the noise-free
6-point scan, and stores every number at full precision.  The probe_scan
workload compares each point it solves against this file.  Run it only on
code whose probe readout is known to be right (it takes a few minutes):

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import sys

import paths

paths.use_checkout_source()

from cavlab import liouville  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    scans = []
    for name, params, omega_l, grid in workloads.probe_reference_scans():
        result = liouville.probe_spectrum(params, omega_l, grid,
                                          **workloads.PROBE_KWARGS)
        scans.append({
            "name": name,
            "omega_l": omega_l,
            "grid": [float(x) for x in grid],
            "total_density": [float(x) for x in result.meta["total_density"]],
            "incoherent_density": [float(x) for x in result.incoherent_density],
            "coherent_power": float(result.coherent_power),
        })
        print(f"{name}: {len(grid)} points", file=sys.stderr)
    workloads.PROBE_REFERENCE.write_text(json.dumps({"scans": scans}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
