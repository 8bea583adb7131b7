"""Command-line front end: scenario JSON in, plot-ready CSV out.

Every value is reported with 12 significant digits and natural-log units
(column suffix `_nats`); `--bits` rescales those columns at presentation.
Runs are pure functions of (scenario, seed): repeating a run produces
byte-identical CSV.

Exit codes: 0 success, 1 numerical failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

import numpy as np

from . import asymptotics, bounds, fading, mcsim, scenario, spectra
from ._parallel import parallel_map
from .errors import NumericalError


def run_bound(scen):
    """Rows: snr, gamma, tail, coherent, penalty, bound, clamped bound, ratio."""
    def row(r):
        return [r.snr, r.gamma, r.tail, r.coherent, r.penalty_spectral, r.bound,
                max(r.bound, 0.0), r.ratio]

    reports = bounds.capacity_lower_bound(scen.model, scen.snr_grid, scen.gamma)
    rows = parallel_map(row, reports)
    header = ["snr", "gamma", "tail", "coherent_nats", "penalty_nats",
              "bound_nats", "bound_clamped_nats", "ratio"]
    return header, rows, None


def run_prelog(scen):
    """Per-SNR bound ratios plus a summary line with the extrapolated pre-log."""
    est = asymptotics.prelog_lower_estimate(scen.model, scen.snr_grid, gamma=scen.gamma)
    target = est.partition.mu_s1  # the Gaussian pre-log: the flat-set measure
    tol = scen.fit_tolerance
    verdict = "PASS" if est.intercept >= target - tol else "FAIL"
    rows = [[s, r] for s, r in zip(est.snr_grid, est.ratios)]
    summary = f"prelog_estimate={est.intercept:.12g}±{tol:g} target={target:.12g} {verdict}"
    return ["snr", "ratio"], rows, summary


def run_szego(scen):
    """Finite-n log-det penalties against the spectral integral at one snr."""
    spectrum = scen.model.spectrum
    integral = bounds.penalty_spectral(spectrum, scen.snr)
    warning = "point-masses-excluded-from-integral" if spectrum.point_masses else ""

    logdets = bounds.penalty_logdets(spectrum, scen.snr, scen.n_list)
    rows = [[n, logdet, integral, logdet - integral, warning]
            for n, logdet in zip(scen.n_list, logdets)]
    header = ["n", "penalty_logdet_nats", "penalty_spectral_nats", "gap_nats",
              "warning"]
    return header, rows, None


def run_mi(scen):
    """Stratified MC estimate of the coherent MI against its analytic bound."""
    if scen.mc_samples is None:
        raise scenario.ScenarioError("mi needs mc_samples in the scenario")
    model = scen.model
    rows = []
    for i, snr in enumerate(scen.snr_grid):
        est = mcsim.estimate_coherent_mi(model, snr, scen.mc_samples,
                                         [scen.seed, i])
        # optimize_gamma needs ln snr > 0; below that Γ = 1, its fallback candidate
        gamma = 1.0 if scen.gamma is None and snr <= 1 else scen.gamma
        analytic = bounds.capacity_lower_bound(model, snr, gamma).coherent
        margin = est.value - analytic
        rows.append([snr, est.value, est.standard_error, analytic, margin,
                     margin >= -3.0 * est.standard_error])
    header = ["snr", "mi_estimate_nats", "se_nats", "analytic_bound_nats",
              "margin_nats", "pass"]
    return header, rows, None


def run_spectrum_check(scen):
    """Welch density of one simulated path against the analytic density."""
    path = fading.simulate_path(scen.model, scen.path_length, scen.seed)
    grid, density = mcsim.empirical_spectrum(path, scen.segment_length)
    rows = [[lam, emp, spectra.density_at(scen.model.spectrum, lam)]
            for lam, emp in zip(grid, density)]
    return ["lambda", "empirical_density", "analytic_density"], rows, None


_COMMANDS = {  # name: (runner, help)
    "bound": (run_bound, "evaluate the capacity lower bound over the snr grid"),
    "prelog": (run_prelog, "extrapolate the pre-log from bound ratios"),
    "szego": (run_szego, "compare finite-n log-det penalties with the spectral integral"),
    "mi": (run_mi, "Monte Carlo check of the coherent mutual-information term"),
    "spectrum-check": (run_spectrum_check,
                       "compare a simulated path's Welch spectrum with the model"),
}


def _to_bits(header, rows):
    nat_cols = {i for i, h in enumerate(header) if h.endswith("_nats")}
    header = [h[:-5] + "_bits" if i in nat_cols else h for i, h in enumerate(header)]
    ln2 = math.log(2.0)
    rows = [[v / ln2 if i in nat_cols else v for i, v in enumerate(row)]
            for row in rows]
    return header, rows


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def render_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="prelog-lab",
        description="Capacity lower bounds and pre-log asymptotics for "
                    "peak-limited non-coherent fading channels with memory.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", help="write the CSV table here instead of stdout")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--bits", action="store_true",
                       help="report logarithmic columns in bits instead of nats")
    return parser


_PARSER = _build_parser()  # parse_args keeps no state between calls


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        scen = scenario.load_scenario(args.scenario)
        if args.seed is not None:
            scen = scen.with_seed(args.seed)
        if args.command not in scen.outputs:
            raise scenario.ScenarioError(f"scenario {scen.name!r} does not list the "
                                         f"{args.command!r} artifact in its outputs")
        runner, _ = _COMMANDS[args.command]
        header, rows, summary = runner(scen)
        if args.bits:
            header, rows = _to_bits(header, rows)
        text = render_csv(header, rows)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if summary is not None:
            print(summary)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
