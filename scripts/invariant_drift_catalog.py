"""Tabulate conserved-quantity drift across the frequency catalog.

For each frequency profile the script integrates the paired trajectories on
[0, 20], evaluates the two exact invariants along them, and reports relative
drift.  A second table shows where the adiabatic energy/frequency ratio holds
(slow modulation) and where it fails (fast modulation), which is the contrast
the exact invariants are built to survive.

Usage: python3 scripts/invariant_drift_catalog.py [--csv PATH]
"""

from __future__ import annotations

import argparse
import csv
import math

import numpy as np

from epwb import (
    EPConfig,
    drift,
    ep_system,
    ermakov_invariant,
    integrate,
    lorentz_adiabatic,
    oscillator_system,
    time_function,
)

PHI_CATALOG = ("1", "0", "4", "1+0.5*sin(t)", "1.25/((1+t)^2)")
INTERVAL = (0.0, 20.0)
SAMPLES = 201


def sample_grid(interval: tuple[float, float] = INTERVAL, n: int = SAMPLES) -> np.ndarray:
    a, b = interval
    return a + (b - a) * np.arange(n) / (n - 1)


def exact_invariant_row(phi_text: str) -> tuple[str, float, float]:
    phi = time_function(phi_text)
    h2 = 2.0
    grid = sample_grid()
    x = integrate(ep_system(EPConfig(phi, time_function(repr(h2)))), (1.0, 0.0), INTERVAL)
    y = integrate(oscillator_system(phi), (1.0, 0.0), INTERVAL)
    ermakov = ermakov_invariant(x, y, h2, grid)

    rho = integrate(ep_system(EPConfig(phi, time_function("1"))), (1.0, 0.0), INTERVAL)
    q = integrate(oscillator_system(phi), (0.5, 1.0), INTERVAL)
    lewis = ermakov_invariant(rho, q, 1.0, grid)  # Lewis: Ermakov with h^2 = 1, (x, y) = (rho, q)
    return phi_text, drift(ermakov), drift(lewis)


def adiabatic_row(label: str, omega2_text: str, interval: tuple[float, float]) -> tuple[str, float]:
    omega2 = time_function(omega2_text)
    q = integrate(oscillator_system(omega2), (1.0, 0.0), interval)
    grid = sample_grid(interval)
    omega = np.sqrt(omega2.jet(grid, 0)[0])
    return label, drift(lorentz_adiabatic(omega, *q.sample(grid).T))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--csv", help="also write the exact-invariant table as CSV")
    args = ap.parse_args()

    rows = [exact_invariant_row(phi) for phi in PHI_CATALOG]
    print(f"exact invariants, interval {INTERVAL}, {SAMPLES} samples")
    print(f"{'phi':<20} {'ermakov drift':>15} {'lewis drift':>15}")
    for phi_text, de, dl in rows:
        print(f"{phi_text:<20} {de:>15.3e} {dl:>15.3e}")

    adiabatic = [
        adiabatic_row("constant (omega^2=4)", "4", INTERVAL),
        # one full modulation period at 1% rate keeps the ratio adiabatic
        adiabatic_row("slow (1+0.5*sin(0.01t))", "1+0.5*sin(0.01*t)", (0.0, 2 * math.pi / 0.01)),
        adiabatic_row("fast (1+0.5*sin(3t))", "1+0.5*sin(3*t)", INTERVAL),
    ]
    print()
    print("adiabatic ratio E/omega (exact only for constant frequency)")
    print(f"{'modulation':<28} {'drift':>12}")
    for label, d in adiabatic:
        print(f"{label:<28} {d:>12.3e}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["phi", "ermakov_drift", "lewis_drift"])
            for phi_text, de, dl in rows:
                writer.writerow([phi_text, f"{de:.17g}", f"{dl:.17g}"])
        print(f"\nwrote {args.csv}")


if __name__ == "__main__":
    main()
