"""Independent checks of the CLI's CSV output, one per subcommand.

The oracles rebuild each model from the scenario dict with their own
formulas and never import prelog_lab:

- tails: exp(-g^2) (Rayleigh), the noncentral chi-square survival function
  (Rice), exact enumeration of the 4^J atoms (four-point phase), and the
  arccos law of |r1 + r2 e^{i phi}| (unit modulus, one tap with a mean or
  two taps);
- penalties: closed form for constant densities, composite Gauss-Legendre
  for the trigonometric densities of FIR taps;
- log-determinants: eigvalsh of a Toeplitz matrix built from closed-form
  autocovariances.

Where the library reads a tail from its 1e6-draw empirical table, the
check allows DKW_SLACK: by the Dvoretzky-Kiefer-Wolfowitz inequality
P(sup |F_n - F| > 3e-3) <= 2 exp(-2 * 1e6 * 9e-6) = 3e-8.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import scipy.optimize
import scipy.stats

EPS = float(np.finfo(float).eps)
DKW_SLACK = 3e-3
BRACKET = 1e-9  # relative: the CSV prints gamma with 12 significant digits
FOUR_POINTS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _close(a, b, rel, abs_=0.0):
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b), 1.0)


def parse_csv(text):
    """(header, rows of floats or strings, summary line or None)."""
    lines = text.splitlines()
    summary = None
    if lines and lines[-1].startswith("prelog_estimate="):
        summary = lines.pop()
    table = list(csv.reader(io.StringIO("\n".join(lines))))
    return table[0], table[1:], summary


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class Model:
    """The marginal law of |H1| and the spectral density, from a scenario dict."""

    def __init__(self, data):
        self.kind = data["kind"]
        self.mean = complex(*data.get("mean", [0.0, 0.0]))
        if self.kind == "fir":
            taps = np.array([complex(*t) for t in data["taps"]])
            self.taps = taps / math.sqrt(float(np.sum(np.abs(taps) ** 2)))
            self.innovation = data.get("innovation", "complex_gaussian")
            self.pieces = []
            self.point_masses = []
        else:
            self.taps = None
            self.innovation = None
            spectrum = data["spectrum"]
            self.pieces = []
            for p in spectrum.get("pieces", []):
                if p["density"]["kind"] != "constant":
                    raise ValueError("the oracle supports constant densities only")
                self.pieces.append((p["lo"], p["hi"], p["density"]["value"]))
            self.point_masses = [tuple(m) for m in spectrum.get("point_masses", [])]

    # -- marginal tail ------------------------------------------------------

    @property
    def gaussian_marginal(self):
        return self.kind == "gaussian" or self.innovation == "complex_gaussian"

    @property
    def empirical_in_library(self):
        """True where the library reads its tail from the 1e6-draw table."""
        if self.gaussian_marginal:
            return False
        if len(self.taps) == 1:
            return not (self.innovation == "four_point_phase" or self.mean == 0)
        return True

    def _atoms(self):
        j = len(self.taps)
        grid = np.array(np.meshgrid(*[FOUR_POINTS] * j, indexing="ij")).reshape(j, -1)
        return np.abs(self.mean + self.taps @ grid)

    def tail(self, gamma):
        """Exact P(|H1| >= gamma)."""
        if gamma <= 0:
            return 1.0
        if self.gaussian_marginal:
            if self.mean == 0:
                return math.exp(-gamma * gamma)
            return float(scipy.stats.ncx2.sf(2 * gamma * gamma, 2, 2 * abs(self.mean) ** 2))
        if self.innovation == "four_point_phase":
            return float(np.mean(self._atoms() >= gamma))
        if self.innovation == "unit_modulus":
            if len(self.taps) == 1:
                r1, r2 = abs(self.mean), abs(self.taps[0])
            elif len(self.taps) == 2 and self.mean == 0:
                r1, r2 = abs(self.taps[0]), abs(self.taps[1])
            else:
                raise ValueError("unit-modulus oracle needs one tap, or two taps and no mean")
            if r1 == 0:
                return 1.0 if r2 >= gamma else 0.0
            c = (gamma * gamma - r1 * r1 - r2 * r2) / (2 * r1 * r2)
            return math.acos(min(1.0, max(-1.0, c))) / math.pi
        raise ValueError(f"no tail oracle for {self.innovation}")

    def tail_bracket(self, gamma):
        """(low, high) bounds on the tail the library may report at a printed gamma."""
        slack = DKW_SLACK if self.empirical_in_library else 0.0
        low = self.tail(gamma * (1 + BRACKET)) - slack
        high = self.tail(gamma * (1 - BRACKET)) + slack
        return low, high

    def best_coherent(self, snr):
        """max over gamma of tail(gamma) * (ln snr - 1 + 2 ln gamma)."""
        lsnr = math.log(snr)

        def objective(g):
            return self.tail(g) * (lsnr - 1.0 + 2.0 * math.log(g))

        if self.innovation == "four_point_phase" or (
                self.innovation == "unit_modulus" and len(self.taps) == 1 and self.mean == 0):
            # the tail is a step function that keeps each atom: the maximum sits on one
            atoms = np.unique(self._atoms()) if self.innovation == "four_point_phase" \
                else np.array([abs(self.taps[0])])
            return max(objective(float(a)) for a in atoms if a > 0)
        logs = np.linspace(math.log(1e-6), math.log(1e3), 4001)
        values = [objective(math.exp(x)) for x in logs]
        i = int(np.argmax(values))
        lo, hi = logs[max(i - 1, 0)], logs[min(i + 1, len(logs) - 1)]
        res = scipy.optimize.minimize_scalar(lambda x: -objective(math.exp(x)),
                                             bounds=(lo, hi), method="bounded",
                                             options={"xatol": 1e-12})
        return max(values[i], -res.fun)

    # -- spectrum -----------------------------------------------------------

    def density(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.kind == "fir":
            j = np.arange(len(self.taps))
            return np.abs(np.exp(-2j * np.pi * np.multiply.outer(lam, j)) @ self.taps) ** 2
        out = np.zeros(lam.shape)
        for lo, hi, value in self.pieces:
            out = np.where((lam >= lo) & (lam <= hi), value, out)
        return out

    def flat_measure(self):
        if self.kind == "fir":
            return 0.0
        return max(0.0, 1.0 - sum(hi - lo for lo, hi, v in self.pieces if v != 0))

    def penalty(self, snr):
        """(integral of ln(1 + snr f), error estimate), point masses excluded."""
        if self.kind != "fir":
            return sum((hi - lo) * math.log1p(snr * v) for lo, hi, v in self.pieces), 0.0
        nodes, weights = np.polynomial.legendre.leggauss(32)

        def composite(panels):
            edges = np.linspace(-0.5, 0.5, panels + 1)
            half = 0.5 * np.diff(edges)
            lam = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * nodes
            vals = np.log1p(snr * np.maximum(self.density(lam), 0.0))
            return float(np.sum(half[:, None] * weights * vals))

        coarse, fine = composite(128), composite(256)
        return fine, abs(fine - coarse)

    def autocovariances(self, n):
        m = np.arange(n)
        if self.kind == "fir":
            a = self.taps
            r = np.array([np.sum(a[k:] * np.conj(a[:len(a) - k])) if k < len(a) else 0.0
                          for k in range(n)], dtype=complex)
            return r
        r = np.zeros(n, dtype=complex)
        w = 2j * np.pi * m[1:]
        for lo, hi, value in self.pieces:
            r[0] += value * (hi - lo)
            r[1:] += value * (np.exp(w * hi) - np.exp(w * lo)) / w
        for loc, weight in self.point_masses:
            r += weight * np.exp(2j * np.pi * m * loc)
        return r

    def logdet_eig(self, snr, n):
        """((1/n) ln det(I + snr K_n) from eigvalsh, largest eigenvalue of K_n)."""
        r = self.autocovariances(n)
        idx = np.arange(n)
        lag = idx[:, None] - idx[None, :]
        k = np.where(lag >= 0, r[np.abs(lag)], np.conj(r[np.abs(lag)]))
        eig = np.linalg.eigvalsh(k)
        return float(np.sum(np.log1p(snr * np.maximum(eig, 0.0))) / n), float(eig[-1])


# ---------------------------------------------------------------------------
# per-subcommand checks
# ---------------------------------------------------------------------------

def _penalty_ok(model, snr, value):
    want, err = model.penalty(snr)
    # quad is asked for 1e-9 absolute; its error estimate is not a bound
    return _close(value, want, 1e-11, 1e-8 + 10 * err), want


def check_bound(scen, text):
    problems = []
    header, rows, _ = parse_csv(text)
    if header != ["snr", "gamma", "tail", "coherent_nats", "penalty_nats",
                  "bound_nats", "bound_clamped_nats", "ratio"]:
        return [f"bound: unexpected header {header}"]
    model = Model(scen["model"])
    grid = scen["snr_grid"]
    if len(rows) != len(grid):
        return [f"bound: {len(rows)} rows for {len(grid)} snr values"]
    for row, snr_want in zip(rows, grid):
        snr, gamma, tail, coherent, penalty, bound, clamped, ratio = map(float, row)
        where = f"bound snr={snr_want:g}"
        lsnr = math.log(snr)
        if not _close(snr, snr_want, 1e-11):
            problems.append(f"{where}: snr {snr}")
        if not gamma > 0:
            problems.append(f"{where}: gamma {gamma} not positive")
            continue
        low, high = model.tail_bracket(gamma)
        if not low - 1e-12 <= tail <= high + 1e-12:
            problems.append(f"{where}: tail {tail} outside [{low}, {high}]")
        if not _close(coherent, tail * (lsnr - 1 + 2 * math.log(gamma)), 1e-9):
            problems.append(f"{where}: coherent {coherent} != tail*(ln snr - 1 + ln gamma^2)")
        ok, want = _penalty_ok(model, snr, penalty)
        if not ok:
            problems.append(f"{where}: penalty {penalty} != oracle {want}")
        if not _close(bound, coherent - penalty, 1e-9):
            problems.append(f"{where}: bound {bound} != coherent - penalty")
        if not _close(clamped, max(bound, 0.0), 1e-9):
            problems.append(f"{where}: clamped bound {clamped}")
        if not _close(ratio, clamped / lsnr, 1e-9):
            problems.append(f"{where}: ratio {ratio}")
        # the optimizer's candidates include gamma = 1
        low1, _ = model.tail_bracket(1.0)
        if coherent < low1 * (lsnr - 1) - 1e-9:
            problems.append(f"{where}: coherent {coherent} below the value at gamma=1")
    return problems


def check_prelog(scen, text, bound_text):
    problems = []
    header, rows, summary = parse_csv(text)
    if header != ["snr", "ratio"] or summary is None:
        return ["prelog: unexpected header or no summary line"]
    _, bound_rows, _ = parse_csv(bound_text)
    ratios = [float(r[1]) for r in rows]
    want = [float(r[7]) for r in bound_rows]
    if len(ratios) != len(want) or not all(_close(a, b, 1e-11, 1e-15)
                                           for a, b in zip(ratios, want)):
        problems.append(f"prelog: ratios {ratios} != bound ratios {want}")
    grid = np.array([float(r[0]) for r in rows])
    y = np.array(ratios[len(ratios) // 2:])
    if np.all(np.abs(y - y[0]) <= 1e-15):
        intercept = float(y[0])
    else:
        x = 1.0 / np.log(grid[len(grid) // 2:])
        intercept = float(np.polyfit(x, y, 1)[1])
    fields = dict(part.split("=", 1) for part in summary.split()[:2])
    reported = float(fields["prelog_estimate"].split("±")[0])
    target = float(fields["target"])
    if not _close(reported, intercept, 1e-8, 1e-9):
        problems.append(f"prelog: intercept {reported} != refit {intercept}")
    if not _close(target, Model(scen["model"]).flat_measure(), 1e-11):
        problems.append(f"prelog: target {target} is not the flat-set measure")
    verdict = "PASS" if reported >= target - 0.05 else "FAIL"
    if not summary.endswith(verdict):
        problems.append(f"prelog: verdict in {summary!r}, expected {verdict}")
    return problems


def logdet_tolerance(n, snr, norm):
    """Agreement to expect between two double-precision log-determinants.

    Each eigenvalue of K moves by about sqrt(n) * eps * ||K|| under rounding,
    which moves ln(1 + snr * mu) by at most snr times that; a factor of 4
    covers both methods.
    """
    return 1e-10 + 4 * math.sqrt(n) * EPS * snr * norm


def check_szego(scen, text):
    problems = []
    header, rows, _ = parse_csv(text)
    if header != ["n", "penalty_logdet_nats", "penalty_spectral_nats", "gap_nats", "warning"]:
        return [f"szego: unexpected header {header}"]
    model = Model(scen["model"])
    snr = scen["snr"]
    ns = [int(r[0]) for r in rows]
    if ns != scen["n_list"]:
        return [f"szego: orders {ns} != {scen['n_list']}"]
    warning = "point-masses-excluded-from-integral" if model.point_masses else ""
    gaps = []
    for row in rows:
        n, logdet, integral, gap = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        where = f"szego n={n} snr={snr:g}"
        ok, want = _penalty_ok(model, snr, integral)
        if not ok:
            problems.append(f"{where}: spectral penalty {integral} != oracle {want}")
        if not _close(gap, logdet - integral, 1e-9):
            problems.append(f"{where}: gap {gap} != logdet - integral")
        if row[4] != warning:
            problems.append(f"{where}: warning {row[4]!r}, expected {warning!r}")
        if n <= 512:
            ref, norm = model.logdet_eig(snr, n)
            tol = logdet_tolerance(n, snr, norm)
            if not _close(logdet, ref, 1e-11, tol):
                problems.append(f"{where}: logdet {logdet} != eigvalsh {ref} (tol {tol:.3g})")
        gaps.append(abs(gap))
    if not all(b <= a for a, b in zip(gaps, gaps[1:])):  # test_02's rule
        problems.append(f"szego snr={snr:g}: |gap| increases with n: {gaps}")
    return problems


def check_mi(scen, text):
    problems = []
    header, rows, _ = parse_csv(text)
    if header != ["snr", "mi_estimate_nats", "se_nats", "analytic_bound_nats",
                  "margin_nats", "pass"]:
        return [f"mi: unexpected header {header}"]
    if scen.get("gamma_mode", "optimized") != "optimized":
        raise ValueError("the mi oracle supports gamma_mode 'optimized' only")
    model = Model(scen["model"])
    if len(rows) != len(scen["snr_grid"]):
        return [f"mi: {len(rows)} rows for {len(scen['snr_grid'])} snr values"]
    for row, snr_want in zip(rows, scen["snr_grid"]):
        snr, mi, se, analytic, margin = map(float, row[:5])
        where = f"mi snr={snr_want:g}"
        if not _close(snr, snr_want, 1e-11):
            problems.append(f"{where}: snr {snr}")
        if not se > 0:
            problems.append(f"{where}: standard error {se}")
        if not _close(margin, mi - analytic, 1e-9):
            problems.append(f"{where}: margin {margin} != estimate - analytic")
        passed = margin >= -3.0 * se  # test_05's rule
        if row[5] != ("true" if passed else "false") or not passed:
            problems.append(f"{where}: pass={row[5]}, margin {margin}, 3 se {3 * se}")
        best = model.best_coherent(snr)
        slack = DKW_SLACK * (math.log(snr) + 2 * math.log(1e3)) \
            if model.empirical_in_library else 0.0
        if not _close(analytic, best, 1e-8, slack):
            problems.append(f"{where}: analytic {analytic} != oracle optimum {best}")
    return problems


def check_spectrum(scen, text):
    problems = []
    header, rows, _ = parse_csv(text)
    if header != ["lambda", "empirical_density", "analytic_density"]:
        return [f"spectrum-check: unexpected header {header}"]
    model = Model(scen["model"])
    seg = scen.get("segment_length", 256)
    data = np.array([[float(v) for v in row] for row in rows])
    lam, emp, ana = data.T
    if len(lam) != seg or not np.allclose(lam, np.fft.fftshift(np.fft.fftfreq(seg)),
                                          rtol=0, atol=1e-12):
        return ["spectrum-check: frequency grid is not the shifted FFT grid"]
    want = model.density(lam)
    if not np.allclose(ana, want, rtol=1e-10, atol=1e-12):
        problems.append("spectrum-check: analytic density differs from the model density")
    if np.any(emp < -1e-12):
        problems.append("spectrum-check: negative Welch density")
    mass = float(emp.sum() / seg)
    if abs(mass - 1.0) > 0.1:
        problems.append(f"spectrum-check: Welch mass {mass}, expected unit variance")
    if model.kind == "gaussian":
        # test_07's rule: under 5% of the Welch mass more than 0.05 outside the band
        dist = np.full(lam.shape, np.inf)
        for lo, hi, value in model.pieces:
            if value > 0:
                inside = np.clip(lam, lo, hi)
                d = np.abs(lam - inside)
                dist = np.minimum(dist, np.minimum(d, 1.0 - d))
        outside = dist > 0.05
        if outside.any() and emp[outside].sum() / emp.sum() >= 0.05:
            problems.append("spectrum-check: 5% or more of the Welch mass lies out of band")
    return problems


def check_job(cmd, scen, text, bound_text=None):
    """Problems found in one job's CSV (an empty list when it is correct)."""
    if not text.strip():
        return [f"{cmd}: empty output"]
    try:
        if cmd == "bound":
            return check_bound(scen, text)
        if cmd == "prelog":
            if bound_text is None:
                return ["prelog: no bound output of the same scenario to compare with"]
            return check_prelog(scen, text, bound_text)
        if cmd == "szego":
            return check_szego(scen, text)
        if cmd == "mi":
            return check_mi(scen, text)
        if cmd == "spectrum-check":
            return check_spectrum(scen, text)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{cmd}: malformed output ({exc})"]
    raise ValueError(f"no oracle for subcommand {cmd!r}")
